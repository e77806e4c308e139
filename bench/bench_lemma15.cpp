// Timing bench for the Figure 8 / Lemma 15 machinery: bipartite double
// cover, 1-factorisation (repeated Hopcroft-Karp), blossom matching (the
// class-G membership test of Lemma 16 / Theorem 17), exact minimum
// vertex cover (ground truth for the Section 3.3 bench) — and the
// covering-map *search*, which rediscovers the projection of a voltage
// lift from scratch.
//
// Ported off google-benchmark onto the task-parallel substrate: the
// independent rows of each phase run across --threads N workers into
// order-preserving slots, and the covering search scans its candidate
// space with parallel_find_first (lowest-witness contract). stdout —
// graph sizes, factor counts, matching/cover sizes, covering verdicts —
// is byte-identical at any thread count; wall-clocks go to stderr and
// BENCH_lemma15.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cover/covering.hpp"
#include "graph/double_cover.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "graph/matching.hpp"
#include "graph/properties.hpp"
#include "util/parallel.hpp"

namespace {

using namespace wm;

void phase_double_cover(ThreadPool& pool) {
  std::printf("=== Double cover + 1-factorisation (Figure 8) ===\n");
  std::printf("%-6s %-4s %-12s %-12s %-10s\n", "n", "k", "cover nodes",
              "cover edges", "factors");
  struct Cfg { int n; int k; };
  const std::vector<Cfg> cfgs = {{32, 3}, {32, 5}, {128, 3},
                                 {128, 5}, {512, 4}};
  const benchutil::Timer timer;
  std::vector<std::string> rows(cfgs.size());
  pool.parallel_for(0, cfgs.size(), [&](std::uint64_t i) {
    WM_SCOPE("bench.lemma15.factorise");
    Rng rng(1 + i);
    const Graph g = random_regular_graph(cfgs[i].n, cfgs[i].k, rng);
    const DoubleCover dc = bipartite_double_cover(g);
    const auto factors = one_factorise_bipartite(dc.graph, dc.side);
    char buf[128];
    std::snprintf(buf, sizeof buf, "%-6d %-4d %-12d %-12d %-10zu\n",
                  cfgs[i].n, cfgs[i].k, dc.graph.num_nodes(),
                  dc.graph.num_edges(), factors.size());
    rows[i] = buf;
  }, 1);
  for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
  std::printf("\n");
  benchutil::report_phase("double cover + factorise", timer.ms(), cfgs.size());
}

void phase_matching(ThreadPool& pool) {
  std::printf("=== Blossom matching + class-G membership (Lemma 16) ===\n");
  std::printf("%-22s %-8s %-12s\n", "graph", "n", "result");
  struct Row { std::string label; std::string result; };
  const std::vector<int> sizes = {16, 64, 256};
  const std::vector<int> gks = {3, 5, 7, 9};
  const std::size_t total = sizes.size() + gks.size();
  const benchutil::Timer timer;
  std::vector<std::string> rows(total);
  pool.parallel_for(0, total, [&](std::uint64_t i) {
    WM_SCOPE("bench.lemma15.matching");
    char buf[128];
    if (i < sizes.size()) {
      const int n = sizes[i];
      Rng rng(3);
      const Graph g = random_regular_graph(n, 3, rng);
      const Matching m = blossom_maximum_matching(g);
      std::snprintf(buf, sizeof buf, "%-22s %-8d matching %d\n",
                    "random 3-regular", n, matching_size(m));
    } else {
      const int k = gks[i - sizes.size()];
      const Graph g = class_g_graph(k);
      std::snprintf(buf, sizeof buf, "%-22s %-8d 1-factor: %s\n",
                    "class-G", g.num_nodes(),
                    has_one_factor(g) ? "exists(!)" : "none");
    }
    rows[i] = buf;
  }, 1);
  for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
  std::printf("\n");
  benchutil::report_phase("matchings + class-G", timer.ms(), total);
}

void phase_vertex_cover(ThreadPool& pool) {
  std::printf("=== Exact minimum vertex cover (Section 3.3 ground truth) "
              "===\n");
  std::printf("%-6s %-10s\n", "n", "min VC");
  const std::vector<int> sizes = {12, 18, 24};
  const benchutil::Timer timer;
  std::vector<std::string> rows(sizes.size());
  pool.parallel_for(0, sizes.size(), [&](std::uint64_t i) {
    WM_SCOPE("bench.lemma15.vertex_cover");
    const int n = sizes[i];
    Rng rng(4);
    const Graph g = random_connected_graph(n, 4, n / 2, rng);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%-6d %-10d\n", n,
                  minimum_vertex_cover_size(g));
    rows[i] = buf;
  }, 1);
  for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
  std::printf("\n");
  benchutil::report_phase("exact vertex cover", timer.ms(), sizes.size());
}

std::size_t g_cover_candidates = 0;
double g_cover_ms = 0;

/// Rediscovers covering maps by search: lifts of a base graph must cover
/// it (Angluin), disconnected multi-copy lifts exercise the
/// multi-component anchor space, and a base that is NOT covered by a
/// smaller graph yields the negative verdict. Runs at top level so the
/// search itself can use the pool (never nested inside a pool task).
void phase_covering_search(ThreadPool& pool) {
  std::printf("=== Covering-map search (Angluin; Section 3.3) ===\n");
  std::printf("%-40s %-10s %-10s\n", "H -> G", "anchors", "covering");
  struct Case {
    std::string label;
    PortNumbering h;
    PortNumbering g;
  };
  std::vector<Case> cases;
  {
    const PortNumbering base =
        PortNumbering::symmetric_regular(cycle_graph(6));
    cases.push_back({"double cover of C6 -> C6",
                     double_cover_lift(base).numbering, base});
    cases.push_back({"3 disjoint copies of C6 -> C6",
                     disjoint_copies(base, 3).numbering, base});
  }
  {
    Rng rng(5);
    const Graph g = random_regular_graph(8, 3, rng);
    const PortNumbering base = PortNumbering::random(g, rng);
    cases.push_back({"random voltage 2-lift -> base",
                     random_voltage_lift(base, 2, rng).numbering, base});
    // Negative case: the base graph does not cover its own double cover
    // (too few nodes to be surjective).
    cases.push_back({"base -> its double cover (negative)", base,
                     double_cover_lift(base).numbering});
  }
  for (const Case& c : cases) {
    WM_SCOPE("bench.lemma15.covering");
    const benchutil::Timer timer;
    const auto phi = find_covering_map(c.h, c.g, &pool);
    g_cover_ms += timer.ms();
    const std::size_t anchors = connected_components(c.h.graph()).size();
    std::uint64_t space = 1;
    for (std::size_t a = 0; a < anchors; ++a) {
      space *= static_cast<std::uint64_t>(c.g.graph().num_nodes());
    }
    g_cover_candidates += space;
    std::printf("%-40s %-10zu %-10s\n", c.label.c_str(), anchors,
                phi ? "found" : "none");
  }
  std::printf("\n");
  benchutil::report_phase("covering search", g_cover_ms, cases.size());
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = benchutil::parse_threads(argc, argv);
  ThreadPool pool(threads);
  std::fprintf(stderr, "[conf]  threads: %d\n", pool.num_threads());
  const benchutil::Timer total;

  phase_double_cover(pool);
  phase_matching(pool);
  phase_vertex_cover(pool);
  phase_covering_search(pool);

  const double wall = total.ms();
  benchutil::report_phase("total", wall);
  benchutil::write_bench_json(
      "lemma15", static_cast<long long>(g_cover_candidates),
      pool.num_threads(), wall,
      g_cover_ms > 0
          ? 1000.0 * static_cast<double>(g_cover_candidates) / g_cover_ms
          : 0);
  return 0;
}
