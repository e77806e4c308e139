// Minimisation report: how far do the four Kripke views of classic
// graphs compress under bisimulation quotienting? The block counts ARE
// the per-class distinguishable-state counts — the quantity every
// separation and every locality bound in this library reduces to.
//
// Ported to the task-parallel substrate: the per-graph rows minimise in
// parallel into order-preserving slots, and the distinct-quotient search
// (the Lemma 14/15 question "how many genuinely different minimal views
// does a family of numberings admit?") runs on the visitor-core dedup
// scan of search_distinct_quotients. stdout is
// byte-identical at any --threads setting; perf goes to stderr and
// BENCH_quotient.json.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "bisim/quotient.hpp"
#include "graph/generators.hpp"
#include "port/port_numbering.hpp"
#include "util/parallel.hpp"

namespace {

using namespace wm;

std::string row(const std::string& name, const PortNumbering& p) {
  WM_SCOPE("bench.quotient.row");
  const Graph& g = p.graph();
  char buf[64];
  std::snprintf(buf, sizeof buf, "%-26s %-4d", name.c_str(), g.num_nodes());
  std::string out = buf;
  for (const Variant variant : {Variant::PlusPlus, Variant::MinusPlus,
                                Variant::PlusMinus, Variant::MinusMinus}) {
    const KripkeModel k = kripke_from_graph(p, variant);
    const KripkeModel q = minimise(k);
    const KripkeModel qg = minimise_graded(k);
    std::snprintf(buf, sizeof buf, "   %3d/%-3d", q.num_states(),
                  qg.num_states());
    out += buf;
  }
  out += '\n';
  return out;
}

std::size_t g_scanned = 0;
double g_search_ms = 0;

/// The distinct-quotient search over ALL consistent port numberings of a
/// graph: for each Kripke view, how many non-isomorphic minimal models
/// does the family produce? (1 everywhere = the graph's local views are
/// numbering-independent; more = the numbering leaks information.)
void quotient_search(const char* name, const Graph& g, ThreadPool& pool) {
  WM_SCOPE("bench.quotient.search");
  std::vector<PortNumbering> numberings;
  for_each_consistent_port_numbering(g, [&](const PortNumbering& p) {
    numberings.push_back(p);
    return true;
  });
  const benchutil::Timer timer;
  std::printf("%-26s %-12zu", name, numberings.size());
  for (const Variant variant : {Variant::PlusPlus, Variant::MinusPlus,
                                Variant::PlusMinus, Variant::MinusMinus}) {
    const QuotientSearchResult r = search_distinct_quotients(
        numberings.size(),
        [&](std::uint64_t i) {
          return kripke_from_graph(numberings[i], variant);
        },
        /*graded=*/false, &pool);
    std::printf("   %5zu", r.representatives.size());
    g_scanned += numberings.size();
  }
  std::printf("\n");
  g_search_ms += timer.ms();
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = benchutil::parse_threads(argc, argv);
  ThreadPool pool(threads);
  std::fprintf(stderr, "[conf]  threads: %d\n", pool.num_threads());
  const benchutil::Timer total;

  std::printf("=== Bisimulation quotients (minimal models) ===\n\n");
  std::printf("columns: states of K/~ (ungraded / graded) per view\n\n");
  std::printf("%-26s %-4s   %-7s   %-7s   %-7s   %-7s\n",
              "graph (numbering)", "n", "K++", "K-+", "K+-", "K--");
  // The numberings draw from shared Rngs, so build them sequentially;
  // the minimisation work parallelises over rows.
  Rng rng(3);
  std::vector<std::pair<std::string, PortNumbering>> table;
  table.emplace_back("path-8 (identity)",
                     PortNumbering::identity(path_graph(8)));
  table.emplace_back("cycle-8 (identity)",
                     PortNumbering::identity(cycle_graph(8)));
  table.emplace_back("cycle-8 (symmetric)",
                     PortNumbering::symmetric_regular(cycle_graph(8)));
  table.emplace_back("star-6 (identity)",
                     PortNumbering::identity(star_graph(6)));
  table.emplace_back("petersen (symmetric)",
                     PortNumbering::symmetric_regular(petersen_graph()));
  table.emplace_back("fig9a (symmetric)",
                     PortNumbering::symmetric_regular(fig9a_graph()));
  {
    Rng crng(9);
    const Graph g = fig9a_graph();
    table.emplace_back("fig9a (consistent)",
                       PortNumbering::random_consistent(g, crng));
  }
  {
    const Graph g = random_connected_graph(14, 3, 6, rng);
    table.emplace_back("random-14 (random)", PortNumbering::random(g, rng));
  }
  table.emplace_back("grid-4x4 (identity)",
                     PortNumbering::identity(grid_graph(4, 4)));

  const benchutil::Timer t_rows;
  std::vector<std::string> rows(table.size());
  pool.parallel_for(0, table.size(), [&](std::uint64_t i) {
    rows[i] = row(table[i].first, table[i].second);
  }, 1);
  for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
  benchutil::report_phase("minimisation rows", t_rows.ms(), table.size());

  std::printf("\nShape checks: symmetric numberings compress every view to\n");
  std::printf("a single state (no algorithm distinguishes anything — the\n");
  std::printf("Theorem 17 situation); broadcast views (right columns) are\n");
  std::printf("never finer than the ported ones; graded counts exceed\n");
  std::printf("ungraded exactly where multiplicities matter (MB vs SB).\n");

  std::printf("\n=== Distinct minimal models over all consistent "
              "numberings ===\n\n");
  std::printf("%-26s %-12s   %-5s   %-5s   %-5s   %-5s\n", "graph",
              "numberings", "K++", "K-+", "K+-", "K--");
  quotient_search("path-4", path_graph(4), pool);
  quotient_search("cycle-4", cycle_graph(4), pool);
  quotient_search("cycle-5", cycle_graph(5), pool);
  quotient_search("star-3", star_graph(3), pool);
  benchutil::report_phase("quotient search", g_search_ms, g_scanned);

  std::printf("\nShape checks: views with port information may depend on\n");
  std::printf("the numbering; the portless broadcast view (K--) never does\n");
  std::printf("— its minimal-model count stays 1 per family.\n");

  const double wall = total.ms();
  benchutil::report_phase("total", wall);
  benchutil::write_bench_json(
      "quotient", static_cast<long long>(g_scanned), pool.num_threads(), wall,
      g_search_ms > 0 ? 1000.0 * static_cast<double>(g_scanned) / g_search_ms
                      : 0);
  return 0;
}
