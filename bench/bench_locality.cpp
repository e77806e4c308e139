// Regenerates the paper's locality perspective (Section 2, contribution
// (b)): for uniquely-solvable problems, the *exact* number of rounds
// each class needs, measured by bounded-refinement analysis over an
// exhaustive scope of small port-numbered graphs (plus the Theorem 13
// witness, so the SB column reflects the true separation).
#include <cstdio>
#include <vector>

#include "core/solvability.hpp"
#include "graph/enumerate.hpp"
#include "graph/generators.hpp"
#include "problems/catalogue.hpp"
#include "bench_util.hpp"

namespace {

using namespace wm;

std::vector<ScopedInstance> build_scope(const Problem& problem, int max_n,
                                        int max_degree, bool add_witness) {
  WM_SCOPE("bench.locality.scope");
  std::vector<ScopedInstance> scope;
  EnumerateOptions opts;
  opts.connected_only = false;
  opts.max_degree = max_degree;
  Rng rng(3);
  for (int n = 1; n <= max_n; ++n) {
    enumerate_graphs(n, opts, [&](const Graph& g) {
      scope.push_back(instance_for(problem, PortNumbering::identity(g)));
      scope.push_back(instance_for(problem, PortNumbering::random(g, rng)));
      return true;
    });
  }
  if (add_witness) {
    scope.push_back(instance_for(problem, thm13_witness().numbering));
  }
  return scope;
}

void report(const char* name, const std::vector<ScopedInstance>& scope,
            int delta) {
  WM_SCOPE("bench.locality.report");
  std::printf("%-26s", name);
  for (const ProblemClass c : all_problem_classes()) {
    const SolvabilityReport r = analyse_solvability(scope, c, delta);
    if (r.min_rounds) {
      std::printf(" %6d", *r.min_rounds);
    } else {
      std::printf(" %6s", "--");
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = wm::benchutil::parse_threads(argc, argv);
  const wm::benchutil::Timer wm_total;

  std::printf("=== Exact locality per class (scope: all graphs n<=5, "
              "Delta<=3, two numberings each; '--' = unsolvable) ===\n\n");
  std::printf("%-26s", "problem \\ class");
  for (const ProblemClass c : all_problem_classes()) {
    std::printf(" %6s", problem_class_name(c).c_str());
  }
  std::printf("\n");

  report("degree-parity",
         build_scope(*degree_parity_problem(), 5, 3, false), 3);
  report("isolated-node",
         build_scope(*isolated_node_problem(), 5, 3, false), 3);
  report("odd-odd (+thm13 witness)",
         build_scope(*odd_odd_problem(), 5, 3, true), 3);

  std::printf("\nShape checks (paper):\n");
  std::printf(" - degree-parity and isolated-node are 0 rounds everywhere\n");
  std::printf("   (the initial state already knows the degree);\n");
  std::printf(" - odd-odd takes exactly 1 round in MB and above, and is\n");
  std::printf("   unsolvable in SB once the Theorem 13 witness is in scope\n");
  std::printf("   (SB ( MB with constant locality — contribution (b)).\n");
  wm::benchutil::report_phase("total", wm_total.ms());
  wm::benchutil::write_bench_json("locality", 5, threads, wm_total.ms(), 0);
  return 0;
}
