// Timing bench: model checking (||phi||_K) and formula compilation as
// functions of graph size and modal depth, plus compiled-machine
// execution (whose round count is md + 1 by Theorem 2).
//
// Ported to the task-parallel substrate: the (n, depth) grid cells
// evaluate in parallel into order-preserving slots. stdout carries the
// semantic results — satisfying-state counts, machine classes, round
// counts and output checksums — and is byte-identical at any --threads
// setting; perf goes to stderr and BENCH_modelcheck.json.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "compile/formula_compiler.hpp"
#include "graph/generators.hpp"
#include "logic/model_checker.hpp"
#include "port/port_numbering.hpp"
#include "runtime/engine.hpp"
#include "util/parallel.hpp"

namespace {

using namespace wm;

Formula deep_formula(int depth) {
  // (<*,*>)^depth (q1 | <*,*>_{>=2} q2) — a fixed graded pattern.
  Formula f = Formula::disj(Formula::prop(1),
                            Formula::diamond({0, 0}, Formula::prop(2), 2));
  for (int i = 0; i < depth; ++i) f = Formula::diamond({0, 0}, f);
  return f;
}

std::uint64_t checksum(const std::vector<bool>& bits) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const bool b : bits) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr int kSizes[] = {32, 128, 512};
constexpr int kDepths[] = {1, 4, 8};
constexpr int kExecSizes[] = {32, 128};

std::string modelcheck_cell(int n, int depth) {
  WM_SCOPE("bench.modelcheck.cell");
  Rng rng(1);
  const Graph g = random_connected_graph(n, 4, n, rng);
  const KripkeModel k =
      kripke_from_graph(PortNumbering::random(g, rng), Variant::MinusMinus);
  const std::vector<bool> sat = model_check(k, deep_formula(depth));
  std::size_t count = 0;
  for (const bool b : sat) count += b;
  char buf[96];
  std::snprintf(buf, sizeof buf, "%6d %6d %12zu   %016llx\n", n, depth, count,
                static_cast<unsigned long long>(checksum(sat)));
  return buf;
}

std::string execute_cell(int n, int depth) {
  WM_SCOPE("bench.modelcheck.execute");
  Rng rng(2);
  const Graph g = random_connected_graph(n, 4, n, rng);
  const PortNumbering p = PortNumbering::random(g, rng);
  const auto m = compile_formula(deep_formula(depth), Variant::MinusMinus, 4);
  const ExecutionResult r = execute(*m, p);
  // Theorem 2: the compiled machine stops after exactly md + 1 rounds,
  // and its Boolean outputs must coincide with the model checker's
  // verdicts on the K_{-,-} view.
  const std::vector<bool> truth = model_check(
      kripke_from_graph(p, Variant::MinusMinus, 4), deep_formula(depth));
  std::vector<bool> outputs(truth.size());
  bool agree = r.stopped;
  for (int v = 0; v < g.num_nodes(); ++v) {
    outputs[v] = r.final_states[v].as_int() == 1;
    if (outputs[v] != truth[v]) agree = false;
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, "%6d %6d %8d %8s   %016llx\n", n, depth,
                r.rounds, agree ? "yes" : "NO",
                static_cast<unsigned long long>(checksum(outputs)));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = benchutil::parse_threads(argc, argv);
  ThreadPool pool(threads);
  std::fprintf(stderr, "[conf]  threads: %d\n", pool.num_threads());
  const benchutil::Timer total;

  std::printf("=== Model checking (||phi||_K) ===\n\n");
  std::printf("%6s %6s %12s   %-16s\n", "n", "depth", "satisfying", "checksum");
  {
    std::vector<std::pair<int, int>> grid;
    for (const int n : kSizes) {
      for (const int d : kDepths) grid.emplace_back(n, d);
    }
    const benchutil::Timer t;
    std::vector<std::string> rows(grid.size());
    pool.parallel_for(0, grid.size(), [&](std::uint64_t i) {
      rows[i] = modelcheck_cell(grid[i].first, grid[i].second);
    }, 1);
    for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
    benchutil::report_phase("model check grid", t.ms(), grid.size());
  }

  std::printf("\n=== Formula compilation (Theorem 2) ===\n\n");
  std::printf("%6s %-10s %-10s\n", "depth", "class", "size");
  {
    const benchutil::Timer t;
    std::vector<std::string> rows(std::size(kDepths));
    pool.parallel_for(0, rows.size(), [&](std::uint64_t i) {
      const int depth = kDepths[i];
      const Formula f = deep_formula(depth);
      const auto m = compile_formula(f, Variant::MinusMinus, 4);
      char buf[64];
      std::snprintf(buf, sizeof buf, "%6d %-10s %-10zu\n", depth,
                    m->algebraic_class().name().c_str(), f.size());
      rows[i] = buf;
    }, 1);
    for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
    benchutil::report_phase("compile", t.ms(), rows.size());
  }

  std::printf("\n=== Compiled-machine execution ===\n\n");
  std::printf("%6s %6s %8s %8s   %-16s\n", "n", "depth", "rounds",
              "agree", "checksum");
  std::size_t exec_cells = 0;
  {
    std::vector<std::pair<int, int>> grid;
    for (const int n : kExecSizes) {
      for (const int d : kDepths) grid.emplace_back(n, d);
    }
    exec_cells = grid.size();
    const benchutil::Timer t;
    std::vector<std::string> rows(grid.size());
    pool.parallel_for(0, grid.size(), [&](std::uint64_t i) {
      rows[i] = execute_cell(grid[i].first, grid[i].second);
    }, 1);
    for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
    benchutil::report_phase("execute grid", t.ms(), grid.size());
  }

  std::printf("\nShape checks: deep_formula(depth) has md = depth + 1, so\n");
  std::printf("rounds == depth + 2 on every execute row (Theorem 2: md + 1),\n");
  std::printf("and agree == yes everywhere — the machine's outputs match\n");
  std::printf("the model checker on the K_{-,-} view.\n");

  const double wall = total.ms();
  benchutil::report_phase("total", wall);
  benchutil::write_bench_json(
      "modelcheck", kSizes[std::size(kSizes) - 1], pool.num_threads(), wall,
      wall > 0 ? 1000.0 * static_cast<double>(9 + 3 + exec_cells) / wall : 0);
  return 0;
}
