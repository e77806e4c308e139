// Regenerates Figure 5b — the paper's headline result:
//
//     SB  ⊊  MB = VB  ⊊  SV = MV = VV  ⊊  VVc            (1)
//     SB(1) ⊊ MB(1) = VB(1) ⊊ SV(1) = MV(1) = VV(1) ⊊ VVc(1)   (2)
//
// Equalities are certified constructively by running the Theorem 4/8/9
// transformers against their source machines on randomly sampled
// (G, p) instances; separations are certified by the Corollary 3 recipe
// on the Theorem 11/13/17 witnesses. The output is the same containment
// diagram the paper draws, with a machine-checked status per link.
// Ported to the task-parallel substrate: every certification trial
// executes the source and transformed machines concurrently across
// --threads N workers (one ExecutionContext per worker; the machine
// objects themselves are shared — the re-entrancy the transformers
// guarantee). Instances are pre-generated sequentially from the seeded
// Rng and results reduced in trial order, so stdout is byte-identical at
// any thread count. Perf goes to stderr and BENCH_fig5_hierarchy.json.
#include <cstdio>
#include <memory>
#include <vector>

#include "algorithms/machines.hpp"
#include "bench_util.hpp"
#include "core/classification.hpp"
#include "graph/generators.hpp"
#include "runtime/engine.hpp"
#include "transform/simulations.hpp"
#include "util/parallel.hpp"

namespace {

using namespace wm;

/// Port-sensitive two-round Vector probe machine used as the "arbitrary
/// algorithm" for equality certification.
std::shared_ptr<const StateMachine> probe_vector_machine() {
  auto m = std::make_shared<LambdaMachine>();
  m->cls = AlgebraicClass::vector();
  m->init_fn = [](int d) {
    return Value::triple(Value::str("x"), Value::integer(2), Value::integer(d));
  };
  m->stopping_fn = [](const Value& s) { return s.is_int(); };
  m->message_fn = [](const Value& s, int) { return s.at(2); };
  m->transition_fn = [](const Value& s, const Value& inbox, int) {
    std::int64_t acc = 0;
    for (const Value& v : inbox.items()) {
      if (!v.is_unit()) acc += v.as_int();
    }
    if (s.at(1).as_int() == 1) return Value::integer(acc);
    return Value::triple(Value::str("x"), Value::integer(1),
                         Value::integer(acc));
  };
  return m;
}

std::shared_ptr<const StateMachine> probe_broadcast_machine(int rounds) {
  auto m = std::make_shared<LambdaMachine>();
  m->cls = AlgebraicClass::vector_broadcast();
  m->init_fn = [rounds](int d) {
    return Value::triple(Value::str("g"), Value::integer(rounds),
                         Value::integer(d));
  };
  m->stopping_fn = [](const Value& s) { return s.is_int(); };
  m->message_fn = [](const Value& s, int) { return s.at(2); };
  m->transition_fn = [](const Value& s, const Value& inbox, int) {
    std::int64_t best = s.at(2).as_int();
    for (const Value& v : inbox.items()) {
      if (!v.is_unit() && v.as_int() < best) best = v.as_int();
    }
    const auto left = s.at(1).as_int() - 1;
    if (left == 0) return Value::integer(best);
    return Value::triple(Value::str("g"), Value::integer(left),
                         Value::integer(best));
  };
  return m;
}

struct EqualityReport {
  int instances = 0;
  int matches = 0;
  int max_extra_rounds = 0;
};

std::size_t g_instances_run = 0;

EqualityReport certify(const StateMachine& src, const StateMachine& sim,
                       int trials, int delta, Rng& rng, ThreadPool& pool) {
  // Instances come from the seeded Rng in the same order regardless of
  // thread count; only the executions fan out.
  std::vector<PortNumbering> instances;
  instances.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    const Graph g = random_connected_graph(10, delta, 5, rng);
    instances.push_back(PortNumbering::random(g, rng));
  }

  struct Trial {
    bool match = false;
    int extra_rounds = 0;
  };
  std::vector<Trial> results(instances.size());
  std::vector<ExecutionContext> ctxs(
      static_cast<std::size_t>(pool.num_threads()));
  pool.parallel_chunks(
      0, instances.size(),
      [&](std::uint64_t lo, std::uint64_t hi, int worker) {
        ExecutionContext& ctx = ctxs[static_cast<std::size_t>(worker)];
        for (std::uint64_t t = lo; t < hi; ++t) {
          WM_SCOPE("bench.fig5.instance");
          const auto ra = execute(src, instances[t], ctx);
          const auto rb = execute(sim, instances[t], ctx);
          results[t].match =
              ra.stopped && rb.stopped && ra.final_states == rb.final_states;
          results[t].extra_rounds = rb.rounds - ra.rounds;
        }
      },
      1);

  EqualityReport rep;
  for (const Trial& t : results) {
    ++rep.instances;
    if (t.match) ++rep.matches;
    rep.max_extra_rounds = std::max(rep.max_extra_rounds, t.extra_rounds);
  }
  g_instances_run += instances.size() * 2;
  return rep;
}

void print_equality(const char* label, const EqualityReport& r,
                    const char* overhead_claim) {
  std::printf("  %-10s %s  [%d/%d instances agree; max extra rounds %d, "
              "claim: %s]\n",
              label, r.matches == r.instances ? "VERIFIED" : "FAILED",
              r.matches, r.instances, r.max_extra_rounds, overhead_claim);
}

void print_separation(const char* label, const SeparationWitness& w) {
  const SeparationCheck c = check_separation(w);
  std::printf("  %-10s %s  [X bisimilar: %d; bisim axioms: %d; "
              "solutions split X: %d]\n",
              label, c.holds() ? "VERIFIED" : "FAILED", c.x_bisimilar,
              c.partition_is_bisim, c.solutions_split_x);
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = benchutil::parse_threads(argc, argv);
  ThreadPool pool(threads);
  std::fprintf(stderr, "[conf]  threads: %d\n", pool.num_threads());
  const benchutil::Timer total;

  std::printf("=== Figure 5b: the linear order on weak models ===\n\n");
  std::printf("Trivial containments (Figure 5a) hold by definition;\n");
  std::printf("the non-trivial links are certified below.\n\n");

  Rng rng(20260704);
  const int delta = 4;

  const benchutil::Timer t_eq;
  std::printf("Equalities (constructive simulations):\n");
  {
    auto v = probe_vector_machine();
    auto m = to_multiset_machine(v);  // Theorem 8
    print_equality("VV = MV", certify(*v, *m, 40, delta, rng, pool),
                   "0 rounds");
    auto s = to_set_machine(m, delta);  // Theorem 4
    print_equality("MV = SV", certify(*m, *s, 40, delta, rng, pool),
                   "+2*Delta");
  }
  {
    auto b = probe_broadcast_machine(3);
    auto mb = to_multiset_machine(b);  // Theorem 9
    print_equality("VB = MB", certify(*b, *mb, 40, delta, rng, pool),
                   "0 rounds");
  }
  const double eq_ms = t_eq.ms();
  benchutil::report_phase("equality certification", eq_ms, g_instances_run);

  const benchutil::Timer t_sep;
  std::printf("\nSeparations (Corollary 3 bisimulation certificates):\n");
  print_separation("SB != MB", thm13_witness());
  print_separation("VB != SV", thm11_witness(3));
  print_separation("VV != VVc", thm17_witness(3));
  benchutil::report_phase("separation certificates", t_sep.ms());

  std::printf("\nResulting hierarchy (both general and constant time):\n\n");
  std::printf("      SB  (  MB = VB  (  SV = MV = VV  (  VVc\n");
  std::printf("    SB(1) ( MB(1)=VB(1) ( SV(1)=MV(1)=VV(1) ( VVc(1)\n\n");
  std::printf("Four distinct levels:\n");
  for (const ProblemClass c : all_problem_classes()) {
    std::printf("  %-4s level %d  machine class %-20s logic %-5s on %s\n",
                problem_class_name(c).c_str(), linear_order_level(c),
                machine_class_for(c).name().c_str(),
                logic_name_for(c).c_str(),
                variant_name(kripke_variant_for(c)).c_str());
  }

  const double wall = total.ms();
  benchutil::report_phase("total", wall);
  benchutil::write_bench_json(
      "fig5_hierarchy", static_cast<long long>(g_instances_run),
      pool.num_threads(), wall,
      eq_ms > 0 ? 1000.0 * static_cast<double>(g_instances_run) / eq_ms : 0);
  return 0;
}
