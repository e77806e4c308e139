// Regenerates the quantitative content of Theorem 2 and Tables 4-5:
//  - compile: for random formulas of modal depth d, the compiled
//    machine's running time is exactly d + 1 rounds, in every variant;
//  - extract: for catalogue machines with running time T, the extracted
//    formula has modal depth <= T and identical extension;
//  - the per-variant machine classes match Table 3.
//
// Ported to the task-parallel substrate: the six (variant, graded)
// sweeps are independent (each seeds its own Rngs) and run across
// --threads N workers, buffered into slots in configuration order —
// stdout is byte-identical at any thread count. Perf lines go to
// stderr; the summary to BENCH_thm2_compile.json.
#include <cstdio>
#include <string>
#include <vector>

#include "algorithms/machines.hpp"
#include "bench_util.hpp"
#include "compile/extract.hpp"
#include "compile/formula_compiler.hpp"
#include "graph/generators.hpp"
#include "logic/model_checker.hpp"
#include "logic/random_formula.hpp"
#include "runtime/engine.hpp"
#include "util/parallel.hpp"

namespace {

using namespace wm;

struct SweepResult {
  std::string text;
  std::size_t compiled = 0;  // machines compiled (for the throughput rate)
};

SweepResult depth_sweep(Variant variant, bool graded) {
  WM_SCOPE("bench.thm2.depth_sweep");
  Rng frng(7 + static_cast<std::uint64_t>(variant));
  Rng grng(11);
  SweepResult result;
  char buf[256];
  std::snprintf(buf, sizeof buf, "variant %-4s graded=%d: ",
                variant_name(variant).c_str(), graded);
  result.text += buf;
  std::snprintf(buf, sizeof buf, "%-8s %-10s %-10s %-10s\n", "depth",
                "runtime", "agree", "machine");
  result.text += buf;
  for (int depth = 0; depth <= 5; ++depth) {
    int runs = 0, agree = 0, runtime = -1;
    std::string cls_name;
    for (int trial = 0; trial < 200 && runs < 10; ++trial) {
      RandomFormulaOptions opts;
      opts.variant = variant;
      opts.graded = graded;
      opts.max_depth = depth;
      opts.delta = 3;
      opts.num_props = 3;
      opts.use_box = true;
      const Formula f = random_formula(frng, opts);
      if (desugar_boxes(f).modal_depth() != depth) continue;
      ++runs;
      const auto machine = compile_formula(f, variant, 3);
      ++result.compiled;
      cls_name = machine->algebraic_class().name();
      const Graph g = random_connected_graph(8, 3, 3, grng);
      const PortNumbering p = PortNumbering::random(g, grng);
      const auto r = execute(*machine, p);
      runtime = r.rounds;
      const auto truth = model_check(kripke_from_graph(p, variant, 3), f);
      bool ok = r.rounds == depth + 1;
      for (int v = 0; v < g.num_nodes(); ++v) {
        if ((r.final_states[v].as_int() == 1) != truth[v]) ok = false;
      }
      if (ok) ++agree;
    }
    std::snprintf(buf, sizeof buf, "%26d %-10d %d/%-8d %s\n", depth, runtime,
                  agree, runs, cls_name.c_str());
    result.text += buf;
  }
  return result;
}

void extraction_table() {
  WM_SCOPE("bench.thm2.extract");
  std::printf("\n=== Tables 4-5: machine -> formula extraction ===\n");
  std::printf("%-28s %-18s %-8s %-8s %-10s %-10s\n", "machine", "class",
              "rounds", "md", "size", "graded");
  struct Row {
    const char* name;
    std::shared_ptr<const StateMachine> m;
    int delta;
    int rounds;
  };
  const Row rows[] = {
      {"degree-parity (time 0)", degree_parity_machine(), 3, 0},
      {"isolated detector (SBo)", isolated_detector_machine(), 3, 1},
      {"odd-odd neighbours (MB)", odd_odd_machine(), 3, 1},
      {"leaf picker (SV)", leaf_picker_machine(), 3, 1},
      {"local-type maximum (VV)", local_type_maximum_machine(2), 2, 2},
  };
  for (const Row& row : rows) {
    ExtractionOptions opts;
    opts.delta = row.delta;
    opts.rounds = row.rounds;
    const Formula psi = extract_formula(*row.m, opts);
    std::printf("%-28s %-18s %-8d %-8d %-10zu %-10s\n", row.name,
                row.m->algebraic_class().name().c_str(), row.rounds,
                psi.modal_depth(), psi.size(), psi.is_graded() ? "yes" : "no");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = benchutil::parse_threads(argc, argv);
  ThreadPool pool(threads);
  std::fprintf(stderr, "[conf]  threads: %d\n", pool.num_threads());
  const benchutil::Timer total;

  std::printf("=== Theorem 2: formula -> machine (runtime = md + 1) ===\n");
  const std::vector<std::pair<Variant, bool>> configs = {
      {Variant::PlusPlus, false}, {Variant::MinusPlus, true},
      {Variant::MinusPlus, false}, {Variant::PlusMinus, false},
      {Variant::MinusMinus, true}, {Variant::MinusMinus, false},
  };
  const benchutil::Timer t_sweep;
  std::vector<SweepResult> slots(configs.size());
  pool.parallel_for(0, configs.size(), [&](std::uint64_t i) {
    slots[i] = depth_sweep(configs[i].first, configs[i].second);
  }, 1);
  std::size_t compiled = 0;
  for (const SweepResult& s : slots) {
    std::fputs(s.text.c_str(), stdout);
    compiled += s.compiled;
  }
  const double sweep_ms = t_sweep.ms();
  benchutil::report_phase("depth sweeps", sweep_ms, compiled);

  {
    const benchutil::Timer t_extract;
    extraction_table();
    benchutil::report_phase("extraction table", t_extract.ms());
  }

  const double wall = total.ms();
  benchutil::report_phase("total", wall);
  benchutil::write_bench_json(
      "thm2_compile", static_cast<long long>(configs.size()),
      pool.num_threads(), wall,
      sweep_ms > 0 ? 1000.0 * static_cast<double>(compiled) / sweep_ms : 0);
  return 0;
}
