// Timing bench: the smaller-half worklist refinement at scale — one
// million-state synthetic Kripke model swept over bounded depths, plus a
// batch of mid-size models refined to fixpoint across the pool
// (--threads N).
//
// The large model is arithmetic, not random: state v has successors
// (2v+1, 6v+5) mod n under one modality and (3v+2) mod n under another,
// with valuation v%3==0 / v%5==0 — fully deterministic, so the printed
// block counts and round numbers are identical at any thread count and
// the work counters feed the regression gate. Depth-bounded rounds are
// the paper's modal-depth correspondence; the sweep shows how fast the
// partition explodes with depth, which is exactly the load the worklist's
// dirty-set propagation is built for.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "bisim/bisimulation.hpp"
#include "logic/kripke.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace wm;

const Modality kM1{0, 1};
const Modality kM2{0, 2};
const Modality kRelations[] = {kM1, kM2};

KripkeModel arithmetic_model(int n) {
  std::vector<KripkeEdge> edges;
  edges.reserve(3 * static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const auto u = static_cast<long long>(v);
    edges.push_back({kM1, v, static_cast<int>((2 * u + 1) % n)});
    edges.push_back({kM1, v, static_cast<int>((6 * u + 5) % n)});
    edges.push_back({kM2, v, static_cast<int>((3 * u + 2) % n)});
  }
  KripkeModel k = KripkeModel::from_edges(n, 2, edges, kRelations);
  for (int v = 0; v < n; ++v) {
    if (v % 3 == 0) k.set_prop(1, v);
    if (v % 5 == 0) k.set_prop(2, v);
  }
  return k;
}

/// A seeded sparse digraph model (out-degree 2 + 1 across two
/// modalities); random targets make refinement hit the fixpoint in a
/// handful of rounds.
KripkeModel random_model(int n, std::uint64_t seed) {
  std::vector<KripkeEdge> edges;
  edges.reserve(3 * static_cast<std::size_t>(n));
  std::vector<int> q1;
  std::vector<int> q2;
  Rng rng(seed);
  for (int v = 0; v < n; ++v) {
    edges.push_back({kM1, v, static_cast<int>(rng.below(n))});
    edges.push_back({kM1, v, static_cast<int>(rng.below(n))});
    edges.push_back({kM2, v, static_cast<int>(rng.below(n))});
    if (rng.chance(1, 3)) q1.push_back(v);
    if (rng.chance(1, 5)) q2.push_back(v);
  }
  KripkeModel k = KripkeModel::from_edges(n, 2, edges, kRelations);
  for (const int v : q1) k.set_prop(1, v);
  for (const int v : q2) k.set_prop(2, v);
  return k;
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = benchutil::parse_threads(argc, argv);
  ThreadPool pool(threads);
  std::fprintf(stderr, "[conf]  threads: %d\n", pool.num_threads());

  std::printf("=== Bisimulation at scale: smaller-half worklist ===\n");
  double wall = 0;
  std::size_t models = 0;

  // Phase 1: million-state depth sweep (sequential — one huge model).
  {
    const int n = 1 << 20;
    const KripkeModel k = arithmetic_model(n);
    for (const int depth : {1, 2, 4, 8}) {
      const benchutil::Timer timer;
      Partition p;
      {
        WM_SCOPE("bench.bisim_large.depth_sweep");
        p = coarsest_bisimulation(k, depth);
      }
      const double ms = timer.ms();
      std::printf("depth sweep n=%-8d t=%-2d blocks %-8d rounds %d\n", n,
                  depth, p.num_blocks, p.rounds);
      benchutil::report_phase("depth sweep", ms, 1);
      wall += ms;
      ++models;
    }
  }

  // Phase 2: fixpoint batch across the pool, graded and ungraded.
  for (const bool graded : {false, true}) {
    const int n = 1 << 14;
    const int batch = 12;
    std::vector<KripkeModel> batch_models;
    batch_models.reserve(batch);
    for (int b = 0; b < batch; ++b) {
      batch_models.push_back(random_model(n, 2012 + static_cast<std::uint64_t>(b)));
    }
    std::vector<int> blocks(batch_models.size());
    std::vector<int> rounds(batch_models.size());
    const benchutil::Timer timer;
    pool.parallel_for(0, batch_models.size(), [&](std::uint64_t i) {
      WM_SCOPE("bench.bisim_large.fixpoint");
      const Partition p = graded ? coarsest_graded_bisimulation(batch_models[i])
                                 : coarsest_bisimulation(batch_models[i]);
      blocks[i] = p.num_blocks;
      rounds[i] = p.rounds;
    }, 1);
    const double ms = timer.ms();
    long long total_blocks = 0;
    int max_rounds = 0;
    for (std::size_t i = 0; i < batch_models.size(); ++i) {
      total_blocks += blocks[i];
      if (rounds[i] > max_rounds) max_rounds = rounds[i];
    }
    std::printf("fixpoint batch %-8s n=%-6d batch=%-3d mean blocks %.1f max rounds %d\n",
                graded ? "graded" : "ungraded", n, batch,
                static_cast<double>(total_blocks) / batch, max_rounds);
    benchutil::report_phase(graded ? "fixpoint graded" : "fixpoint ungraded",
                            ms, batch_models.size());
    wall += ms;
    models += batch_models.size();
  }

  benchutil::report_phase("total", wall);
  benchutil::write_bench_json(
      "bisim_large", 1 << 20, pool.num_threads(), wall,
      wall > 0 ? 1000.0 * static_cast<double>(models) / wall : 0);
  return 0;
}
