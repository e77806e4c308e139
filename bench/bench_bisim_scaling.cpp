// Timing bench: partition-refinement bisimulation — the engine behind
// every separation result — as a function of graph size, Kripke variant
// and gradedness, run as a batch throughput workload on the task-parallel
// substrate (--threads N): each configuration pre-generates a batch of
// random models and refines them across the pool.
//
// Deterministic results (block counts, printed to stdout) are identical
// at any thread count; wall-clock and models/sec go to stderr and
// BENCH_bisim_scaling.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "bisim/bisimulation.hpp"
#include "graph/generators.hpp"
#include "port/port_numbering.hpp"
#include "util/parallel.hpp"

namespace {

using namespace wm;

struct Config {
  const char* label;
  int n;
  Variant variant;
  bool graded;
  int batch;
};

double run_config(const Config& cfg, ThreadPool& pool, std::size_t* models_out) {
  // Batch generation is seeded per config and sequential, so the models
  // (and hence the block counts below) never depend on the thread count.
  Rng rng(static_cast<std::uint64_t>(cfg.n) * 31 +
          static_cast<std::uint64_t>(cfg.variant) * 7 + (cfg.graded ? 1 : 0));
  std::vector<KripkeModel> models;
  models.reserve(static_cast<std::size_t>(cfg.batch));
  for (int b = 0; b < cfg.batch; ++b) {
    const Graph g = random_connected_graph(cfg.n, 4, cfg.n / 2, rng);
    const PortNumbering p = PortNumbering::random(g, rng);
    models.push_back(kripke_from_graph(p, cfg.variant));
  }

  std::vector<int> blocks(models.size());
  const benchutil::Timer timer;
  pool.parallel_for(0, models.size(), [&](std::uint64_t i) {
    WM_SCOPE("bench.bisim_scaling.minimise");
    const Partition part = cfg.graded
                               ? coarsest_graded_bisimulation(models[i])
                               : coarsest_bisimulation(models[i]);
    blocks[i] = part.num_blocks;
  }, 1);
  const double ms = timer.ms();

  long long total_blocks = 0;
  for (int b : blocks) total_blocks += b;
  std::printf("%-28s n=%-5d batch=%-4d mean blocks %.1f\n", cfg.label, cfg.n,
              cfg.batch, static_cast<double>(total_blocks) / cfg.batch);
  benchutil::report_phase(cfg.label, ms, models.size());
  *models_out = models.size();
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = benchutil::parse_threads(argc, argv);
  ThreadPool pool(threads);
  std::fprintf(stderr, "[conf]  threads: %d\n", pool.num_threads());

  std::printf("=== Bisimulation scaling: batches of random models ===\n");
  const std::vector<Config> configs = {
      {"bisim ++ n=16", 16, Variant::PlusPlus, false, 64},
      {"bisim ++ n=64", 64, Variant::PlusPlus, false, 32},
      {"bisim ++ n=256", 256, Variant::PlusPlus, false, 8},
      {"bisim -- n=16", 16, Variant::MinusMinus, false, 64},
      {"bisim -- n=64", 64, Variant::MinusMinus, false, 32},
      {"bisim -- n=256", 256, Variant::MinusMinus, false, 8},
      {"graded bisim -- n=64", 64, Variant::MinusMinus, true, 32},
      {"graded bisim -- n=256", 256, Variant::MinusMinus, true, 8},
      {"graded bisim -- n=512", 512, Variant::MinusMinus, true, 4},
  };

  double wall = 0;
  std::size_t models = 0;
  for (const Config& cfg : configs) {
    std::size_t batch = 0;
    wall += run_config(cfg, pool, &batch);
    models += batch;
  }

  // Lemma 15 symmetric-numbering row (regular graphs), batched likewise.
  {
    Rng rng(3);
    std::vector<Graph> graphs;
    for (int b = 0; b < 64; ++b) graphs.push_back(random_regular_graph(64, 4, rng));
    const benchutil::Timer timer;
    std::vector<int> consistent(graphs.size());
    pool.parallel_for(0, graphs.size(), [&](std::uint64_t i) {
      WM_SCOPE("bench.bisim_scaling.symmetric");
      consistent[i] = PortNumbering::symmetric_regular(graphs[i]).is_consistent();
    }, 1);
    const double ms = timer.ms();
    int total = 0;
    for (int c : consistent) total += c;
    std::printf("%-28s n=%-5d batch=%-4d consistent %d\n",
                "lemma15 symmetric numbering", 64, 64, total);
    benchutil::report_phase("lemma15 symmetric numbering", ms, graphs.size());
    wall += ms;
    models += graphs.size();
  }

  benchutil::report_phase("total", wall);
  benchutil::write_bench_json(
      "bisim_scaling", static_cast<long long>(models), pool.num_threads(),
      wall, wall > 0 ? 1000.0 * static_cast<double>(models) / wall : 0);
  return 0;
}
