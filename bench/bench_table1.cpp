// Regenerates Tables 1 and 2: the prior-work terminology mapped onto
// this library's classes, with the beeping row (Afek et al. /
// Cornejo–Kuhn ≈ SB) backed by a measured simulation: an SB machine run
// natively vs through the single-bit beeping transformation.
// Ported to the task-parallel substrate: the measured rows execute
// concurrently across --threads N workers (instances pre-generated
// sequentially from the seeded Rng; rows buffered and printed in order,
// so stdout is byte-identical at any thread count). Perf goes to stderr
// and BENCH_table1.json.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "graph/generators.hpp"
#include "port/port_numbering.hpp"
#include "runtime/engine.hpp"
#include "transform/beeping.hpp"
#include "util/parallel.hpp"

namespace {

using namespace wm;

LambdaMachine parity_diversity_machine() {
  LambdaMachine m;
  m.cls = AlgebraicClass::set_broadcast();
  m.init_fn = [](int d) {
    return Value::pair(Value::str("p"), Value::integer(d % 2));
  };
  m.stopping_fn = [](const Value& s) { return s.is_int(); };
  m.message_fn = [](const Value& s, int) { return s.at(1); };
  m.transition_fn = [](const Value&, const Value& inbox, int) {
    return Value::integer(inbox.contains(Value::integer(0)) &&
                                  inbox.contains(Value::integer(1))
                              ? 1
                              : 0);
  };
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = benchutil::parse_threads(argc, argv);
  ThreadPool pool(threads);
  std::fprintf(stderr, "[conf]  threads: %d\n", pool.num_threads());
  const benchutil::Timer total;

  std::printf("=== Table 1: prior-work terminology vs this classification "
              "===\n\n");
  std::printf("  %-22s %-34s\n", "class here", "terms in prior work");
  std::printf("  %-22s %-34s\n", "Vector / VVc",
              "port numbering; local edge labelling; local orientation;");
  std::printf("  %-22s %-34s\n", "",
              "complete port awareness; port-to-port");
  std::printf("  %-22s %-34s\n", "Vector / VV", "input/output port awareness");
  std::printf("  %-22s %-34s\n", "Multiset / MV",
              "output port awareness; wireless in input; mailbox;");
  std::printf("  %-22s %-34s\n", "", "port-to-mailbox");
  std::printf("  %-22s %-34s\n", "Set / SV", "(new in the paper)");
  std::printf("  %-22s %-34s\n", "Broadcast / VB",
              "input port awareness; wireless in output; broadcast-to-port");
  std::printf("  %-22s %-34s\n", "Multiset∩Broadcast / MB",
              "totalistic; wireless; broadcast-to-mailbox;");
  std::printf("  %-22s %-34s\n", "", "mailbox-to-mailbox; network w/o colours");
  std::printf("  %-22s %-34s\n", "Set∩Broadcast / SB", "beeping");

  std::printf("\n=== The beeping row, measured ===\n");
  std::printf("An SB machine (alphabet {0,1}) run natively vs through the\n");
  std::printf("single-bit beeping simulation (1 source round -> |M| beep "
              "slots):\n\n");
  std::printf("%-16s %-8s %-12s %-14s %-12s %-12s\n", "graph", "agree",
              "rounds(SB)", "rounds(beep)", "maxmsg(SB)", "maxmsg(beep)");
  auto sb = std::make_shared<LambdaMachine>(parity_diversity_machine());
  const auto beeping =
      to_beeping_machine(sb, {Value::integer(0), Value::integer(1)});
  Rng rng(11);
  const std::vector<std::string> names = {"cycle-9", "star-6", "petersen",
                                          "grid-3x4", "random-10"};
  // Instances from the seeded Rng in fixed order; executions fan out with
  // one ExecutionContext per worker, rows printed in order.
  std::vector<PortNumbering> instances;
  for (const std::string& name : names) {
    Graph g;
    if (name == "cycle-9") g = cycle_graph(9);
    else if (name == "star-6") g = star_graph(6);
    else if (name == "petersen") g = petersen_graph();
    else if (name == "grid-3x4") g = grid_graph(3, 4);
    else g = random_connected_graph(10, 4, 5, rng);
    instances.push_back(PortNumbering::random(g, rng));
  }
  const benchutil::Timer t_rows;
  std::vector<std::string> rows(names.size());
  std::vector<ExecutionContext> ctxs(
      static_cast<std::size_t>(pool.num_threads()));
  pool.parallel_chunks(
      0, names.size(),
      [&](std::uint64_t lo, std::uint64_t hi, int worker) {
        ExecutionContext& ctx = ctxs[static_cast<std::size_t>(worker)];
        for (std::uint64_t i = lo; i < hi; ++i) {
          WM_SCOPE("bench.table1.row");
          const auto ra = execute(*sb, instances[i], ctx);
          const auto rb = execute(*beeping, instances[i], ctx);
          char buf[160];
          std::snprintf(buf, sizeof buf, "%-16s %-8s %-12d %-14d %-12zu %-12zu\n",
                        names[i].c_str(),
                        ra.final_states == rb.final_states ? "yes" : "NO",
                        ra.rounds, rb.rounds, ra.stats.max_size,
                        rb.stats.max_size);
          rows[i] = buf;
        }
      },
      1);
  const double rows_ms = t_rows.ms();
  for (const std::string& r : rows) std::fputs(r.c_str(), stdout);
  benchutil::report_phase("beeping row executions", rows_ms,
                          names.size() * 2);
  std::printf("\nShape check: outputs identical; beeping rounds = |M| x SB\n");
  std::printf("rounds; beeping messages are a single bit.\n");

  std::printf("\n=== Table 2 (summary): how this build differs from prior "
              "work ===\n");
  std::printf(" - no global knowledge: collapses proven with constant\n");
  std::printf("   simulation overhead (bench_thm4/thm8), not |V|-dependent;\n");
  std::printf(" - graph problems, not input-output functions;\n");
  std::printf(" - class-vs-class separations, not individual problems;\n");
  std::printf(" - deterministic synchronous model throughout.\n");

  const double wall = total.ms();
  benchutil::report_phase("total", wall);
  benchutil::write_bench_json(
      "table1", static_cast<long long>(names.size()), pool.num_threads(),
      wall,
      rows_ms > 0 ? 1000.0 * static_cast<double>(names.size() * 2) / rows_ms
                  : 0);
  return 0;
}
