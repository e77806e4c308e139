// Regenerates the separation evidence of Theorems 11, 13 and 17 at
// scale, plus an automated witness *search* that rediscovers Theorem 13
// style counterexamples among all small graphs (the paper exhibits one
// drawing; we show the phenomenon is machine-findable).
//
// Ported to the task-parallel substrate: independent sweep rows and the
// per-graph Kripke construction run across --threads N workers. Witness
// output (stdout) is byte-identical at any thread count — the witness
// search enumerates modulo isomorphism with the deterministic parallel
// variant, and all parallel phases write into order-preserving slots.
// Perf lines go to stderr; the summary to BENCH_separations.json.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bisim/bisimulation.hpp"
#include "core/classification.hpp"
#include "graph/enumerate.hpp"
#include "graph/generators.hpp"
#include "problems/catalogue.hpp"
#include "util/parallel.hpp"

namespace {

using namespace wm;

std::size_t g_graphs_streamed = 0;
double g_search_ms = 0;

void sweep_thm11(ThreadPool& pool) {
  std::printf("=== Theorem 11 sweep: leaf-in-star vs VB, k = 2..10 ===\n");
  std::printf("%-4s %-14s %-10s %-12s\n", "k", "numberings", "blocks",
              "leaves bisim");
  const benchutil::Timer timer;
  // One row per k, fully independent (each k seeds its own Rng), so the
  // sweep parallelises over k with rows buffered in k order.
  std::vector<std::string> rows(11);
  pool.parallel_for(2, 11, [&](std::uint64_t ki) {
    WM_SCOPE("bench.separations.thm11");
    const int k = static_cast<int>(ki);
    SeparationWitness w = thm11_witness(k);
    // Exhaust all numberings for small k, sample for large.
    std::size_t count = 0;
    bool all_bisim = true;
    int blocks = -1;
    if (k <= 3) {
      count = for_each_port_numbering(w.graph, [&](const PortNumbering& p) {
        const KripkeModel m = kripke_from_graph(p, Variant::PlusMinus);
        const Partition part = coarsest_bisimulation(m);
        blocks = part.num_blocks;
        for (int leaf = 2; leaf <= k; ++leaf) {
          if (!part.same_block(1, leaf)) all_bisim = false;
        }
        return true;
      });
    } else {
      Rng rng(static_cast<std::uint64_t>(k));
      for (int trial = 0; trial < 20; ++trial) {
        const PortNumbering p = PortNumbering::random(w.graph, rng);
        const KripkeModel m = kripke_from_graph(p, Variant::PlusMinus);
        const Partition part = coarsest_bisimulation(m);
        blocks = part.num_blocks;
        for (int leaf = 2; leaf <= k; ++leaf) {
          if (!part.same_block(1, leaf)) all_bisim = false;
        }
        ++count;
      }
    }
    char buf[128];
    std::snprintf(buf, sizeof buf, "%-4d %-14zu %-10d %-12s\n", k, count,
                  blocks, all_bisim ? "yes" : "NO");
    rows[ki] = buf;
  }, 1);
  for (int k = 2; k <= 10; ++k) std::fputs(rows[k].c_str(), stdout);
  std::printf("\n");
  benchutil::report_phase("thm11 sweep", timer.ms());
}

void search_thm13_witnesses(ThreadPool& pool) {
  std::printf("=== Theorem 13 witness search over small graph pairs ===\n");
  std::printf("Looking for connected graphs G1, G2 (n <= 6) with K_{-,-}\n");
  std::printf("bisimilar nodes whose odd-odd outputs differ...\n");
  // One pass: build the disjoint union of ALL candidate graphs as a
  // single Kripke model, refine once, and scan blocks for output
  // disagreements — linear instead of quadratic in the candidate count.
  struct Entry {
    int graph_id;
    int n, m;
    int node;
    int output;
  };
  EnumerateOptions opts;
  opts.max_degree = 3;

  // Phase 1: deterministic parallel enumeration modulo isomorphism — the
  // representative set and order match the sequential variant exactly.
  const benchutil::Timer t_enum;
  std::vector<Graph> candidates;
  for (int n = 3; n <= 6; ++n) {
    enumerate_graphs_modulo_iso(
        n, opts,
        [&](const Graph& g) {
          candidates.push_back(g);
          return true;
        },
        &pool);
  }
  const double enum_ms = t_enum.ms();
  benchutil::report_phase("thm13 enumerate", enum_ms, candidates.size());

  // Phase 2: per-candidate Kripke models + entries, in parallel into
  // order-preserving slots.
  const benchutil::Timer t_kripke;
  std::vector<KripkeModel> models(candidates.size(), KripkeModel(0, 0));
  std::vector<std::vector<Entry>> entry_slots(candidates.size());
  pool.parallel_for(0, candidates.size(), [&](std::uint64_t i) {
    WM_SCOPE("bench.separations.thm13_kripke");
    const Graph& g = candidates[i];
    models[i] =
        kripke_from_graph(PortNumbering::identity(g), Variant::MinusMinus, 3);
    for (int v = 0; v < g.num_nodes(); ++v) {
      int odd = 0;
      for (NodeId u : g.neighbours(v)) {
        if (g.degree(u) % 2 == 1) ++odd;
      }
      entry_slots[i].push_back({static_cast<int>(i) + 1, g.num_nodes(),
                                g.num_edges(), v, odd % 2});
    }
  });
  benchutil::report_phase("thm13 kripke models", t_kripke.ms(),
                          candidates.size());

  // Phase 3: one union in candidate order — state numbering is the
  // same at any thread count, so the reported witnesses are too.
  const benchutil::Timer t_join;
  std::vector<int> offsets;
  const KripkeModel joint = KripkeModel::disjoint_union(models, &offsets);
  std::vector<Entry> entries;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    for (Entry e : entry_slots[i]) {
      e.node += offsets[i];
      entries.push_back(e);
    }
  }
  const int graphs = static_cast<int>(candidates.size());
  std::printf(
      "candidate graphs (mod isomorphism): %d, joint model states: %d\n",
      graphs, joint.num_states());
  const Partition part = coarsest_bisimulation(joint);
  benchutil::report_phase("thm13 join+bisim", t_join.ms());

  // For each block, report at most one disagreeing pair.
  std::map<int, std::size_t> first_in_block;
  int found = 0;
  for (std::size_t i = 0; i < entries.size() && found < 5; ++i) {
    const int b = part.block[entries[i].node];
    auto [it, fresh] = first_in_block.try_emplace(b, i);
    if (fresh) continue;
    const Entry& a = entries[it->second];
    if (a.output != entries[i].output && a.graph_id != entries[i].graph_id) {
      ++found;
      std::printf("  witness %d: node of G%d(n=%d,m=%d) ~ node of "
                  "G%d(n=%d,m=%d), outputs %d vs %d\n",
                  found, a.graph_id, a.n, a.m, entries[i].graph_id,
                  entries[i].n, entries[i].m, a.output, entries[i].output);
    }
  }
  std::printf("found %d automated witnesses (>=1 proves SB != MB)\n\n", found);
  g_graphs_streamed = candidates.size();
  g_search_ms = enum_ms;
}

void sweep_thm17(ThreadPool& pool) {
  std::printf("=== Theorem 17 sweep: class-G graphs, odd k ===\n");
  std::printf("%-4s %-6s %-12s %-18s %-14s\n", "k", "n", "1-factor",
              "sym-numbering", "K_{+,+} blocks");
  const benchutil::Timer timer;
  const std::vector<int> ks = {3, 5, 7};
  std::vector<std::string> rows(ks.size());
  pool.parallel_for(0, ks.size(), [&](std::uint64_t i) {
    WM_SCOPE("bench.separations.thm17");
    const int k = ks[i];
    const Graph g = class_g_graph(k);
    const PortNumbering p = PortNumbering::symmetric_regular(g);
    const KripkeModel m = kripke_from_graph(p, Variant::PlusPlus);
    const Partition part = coarsest_bisimulation(m);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%-4d %-6d %-12s %-18s %-14d\n", k,
                  g.num_nodes(), in_class_g(g) ? "none" : "exists",
                  p.is_consistent() ? "consistent(!)" : "inconsistent",
                  part.num_blocks);
    rows[i] = buf;
  }, 1);
  for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
  std::printf("\n");
  benchutil::report_phase("thm17 sweep", timer.ms());
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = benchutil::parse_threads(argc, argv);
  ThreadPool pool(threads);
  std::fprintf(stderr, "[conf]  threads: %d\n", pool.num_threads());
  const benchutil::Timer total;

  std::printf("##### Separation benches (Theorems 11, 13, 17) #####\n\n");
  {
    const benchutil::Timer timer;
    const std::vector<SeparationWitness> witnesses = {
        thm13_witness(), thm11_witness(3), thm17_witness(3)};
    std::vector<std::string> rows(witnesses.size());
    pool.parallel_for(0, witnesses.size(), [&](std::uint64_t i) {
      WM_SCOPE("bench.separations.witness");
      const SeparationCheck c = check_separation(witnesses[i]);
      char buf[160];
      std::snprintf(buf, sizeof buf, "%-55s -> %s\n",
                    witnesses[i].name.c_str(),
                    c.holds() ? "VERIFIED" : "FAILED");
      rows[i] = buf;
    }, 1);
    for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
    std::printf("\n");
    benchutil::report_phase("witness verification", timer.ms());
  }
  sweep_thm11(pool);
  search_thm13_witnesses(pool);
  sweep_thm17(pool);

  const double wall = total.ms();
  benchutil::report_phase("total", wall);
  benchutil::write_bench_json(
      "separations", 6, pool.num_threads(), wall,
      g_search_ms > 0
          ? 1000.0 * static_cast<double>(g_graphs_streamed) / g_search_ms
          : 0);
  return 0;
}
