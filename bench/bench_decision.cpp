// Regenerates the separation theorems as *decision-procedure* outputs:
// for each (problem, class, round bound), whether a distributed
// algorithm exists on a concrete scope — mechanising the paper's
// case-by-case impossibility arguments (and the Section 5.4 open
// question's "is this candidate problem a separator?" workflow).
//
// Ported to the task-parallel substrate: the colouring scan inside
// decide_solvable runs on the pool (DecisionOptions::pool) with the
// lowest-witness contract, so every verdict — and therefore stdout — is
// byte-identical at any --threads setting. The table loops stay serial
// (never nest pool scans inside pool tasks). Perf lines go to stderr;
// the summary to BENCH_decision.json.
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/decision.hpp"
#include "graph/generators.hpp"
#include "problems/catalogue.hpp"
#include "util/parallel.hpp"

namespace {

using namespace wm;

std::size_t g_assignments = 0;

const char* verdict(const Problem& p, const std::vector<PortNumbering>& scope,
                    ProblemClass c, int rounds, ThreadPool* pool) {
  DecisionOptions opts;
  opts.rounds = rounds;
  opts.pool = pool;
  try {
    const Decision d = decide_solvable(p, scope, c, opts);
    g_assignments += d.assignments_tried;
    return d.solvable ? "solvable" : "--";
  } catch (const DecisionBudgetError&) {
    return "budget";
  }
}

void table(const char* title, const Problem& p,
           const std::vector<PortNumbering>& scope,
           const std::vector<int>& round_bounds, ThreadPool* pool) {
  WM_SCOPE("bench.decision.table");
  const benchutil::Timer timer;
  std::printf("%s\n", title);
  std::printf("  %-8s", "rounds");
  for (const ProblemClass c : all_problem_classes()) {
    std::printf(" %9s", problem_class_name(c).c_str());
  }
  std::printf("\n");
  for (int t : round_bounds) {
    if (t < 0) {
      std::printf("  %-8s", "any");
    } else {
      std::printf("  %-8d", t);
    }
    for (const ProblemClass c : all_problem_classes()) {
      std::printf(" %9s", verdict(p, scope, c, t, pool));
    }
    std::printf("\n");
  }
  std::printf("\n");
  benchutil::report_phase(title, timer.ms());
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = benchutil::parse_threads(argc, argv);
  ThreadPool pool(threads);
  std::fprintf(stderr, "[conf]  threads: %d\n", pool.num_threads());
  const benchutil::Timer total;

  std::printf("=== Scoped class-membership decisions ===\n");
  std::printf("('--' = no algorithm of that class exists on the scope, at\n");
  std::printf("any t for the 'any' row; solvability checked by exhausting\n");
  std::printf("block colourings of the joint refinement.)\n\n");

  {
    std::vector<PortNumbering> scope;
    for (int k = 2; k <= 4; ++k) {
      scope.push_back(PortNumbering::identity(star_graph(k)));
    }
    table("Theorem 11 scope: stars k = 2..4, leaf-in-star",
          *leaf_in_star_problem(), scope, {0, 1, -1}, &pool);
  }
  {
    const std::vector<PortNumbering> scope{mis_cycle_witness(6).numbering};
    table("Section 3.1 scope: symmetric consistent C6, maximal independent "
          "set",
          *maximal_independent_set_problem(), scope, {0, 1, -1}, &pool);
  }
  {
    std::vector<PortNumbering> scope{
        PortNumbering::symmetric_regular(cycle_graph(5))};
    table("Symmetric C5, vertex 3-colouring", *three_colouring_problem(),
          scope, {-1}, &pool);
  }
  {
    std::vector<PortNumbering> scope;
    for (const Graph& g : {cycle_graph(4), cycle_graph(5), path_graph(4),
                           star_graph(3), complete_graph(4)}) {
      scope.push_back(PortNumbering::identity(g));
    }
    table("Connected mixed scope, Eulerian decision",
          *eulerian_decision_problem(), scope, {0, -1}, &pool);
  }

  std::printf("Shape checks (paper):\n");
  std::printf(" - leaf-in-star: solvable in the ported classes from t=1,\n");
  std::printf("   never in the broadcast classes (Theorem 11);\n");
  std::printf(" - MIS on a symmetric consistent cycle: unsolvable even in\n");
  std::printf("   VVc (Section 3.1);\n");
  std::printf(" - 3-colouring a symmetric odd cycle: unsolvable (needs\n");
  std::printf("   symmetry breaking);\n");
  std::printf(" - Eulerian decision on connected scopes: solvable at t=0\n");
  std::printf("   from degree parities alone, in every class.\n");

  const double wall = total.ms();
  benchutil::report_phase("total", wall);
  benchutil::write_bench_json(
      "decision", static_cast<long long>(g_assignments), pool.num_threads(),
      wall,
      wall > 0 ? 1000.0 * static_cast<double>(g_assignments) / wall : 0);
  return 0;
}
