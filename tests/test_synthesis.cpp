#include "core/synthesis.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "graph/generators.hpp"
#include "logic/model_checker.hpp"
#include "obs/counters.hpp"
#include "problems/catalogue.hpp"
#include "runtime/engine.hpp"

namespace wm {
namespace {

std::vector<PortNumbering> star_scope(int kmax) {
  std::vector<PortNumbering> scope;
  for (int k = 2; k <= kmax; ++k) {
    scope.push_back(PortNumbering::identity(star_graph(k)));
  }
  return scope;
}

/// The pipeline's end-to-end guarantee: the synthesised machine solves
/// the problem on every instance of the scope.
void expect_machine_solves(const SynthesisResult& result, const Problem& problem,
                           const std::vector<PortNumbering>& scope) {
  for (const PortNumbering& p : scope) {
    const auto r = execute(*result.machine, p);
    ASSERT_TRUE(r.stopped);
    EXPECT_TRUE(problem.valid(p.graph(), r.outputs_as_ints()))
        << result.formula.to_string();
  }
}

TEST(Synthesis, LeafInStarYieldsAnSvAlgorithm) {
  const auto problem = leaf_in_star_problem();
  const auto scope = star_scope(4);
  DecisionOptions opts;
  opts.rounds = 1;
  const auto result =
      synthesise_solution(*problem, scope, ProblemClass::SV, opts);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->machine->algebraic_class(), AlgebraicClass::set());
  EXPECT_LE(result->formula.modal_depth(), 1);
  EXPECT_FALSE(result->formula.is_graded());
  expect_machine_solves(*result, *problem, scope);
}

TEST(Synthesis, LeafInStarImpossibleInBroadcastClasses) {
  const auto problem = leaf_in_star_problem();
  const auto scope = star_scope(4);
  for (const ProblemClass c : {ProblemClass::SB, ProblemClass::MB,
                               ProblemClass::VB}) {
    EXPECT_FALSE(synthesise_solution(*problem, scope, c).has_value());
  }
}

TEST(Synthesis, OddOddYieldsAGradedMbAlgorithm) {
  const auto problem = odd_odd_problem();
  std::vector<PortNumbering> scope;
  Rng rng(1);
  for (const Graph& g : {path_graph(3), path_graph(4), star_graph(3),
                         cycle_graph(4), complete_graph(4)}) {
    scope.push_back(PortNumbering::identity(g));
    scope.push_back(PortNumbering::random(g, rng));
  }
  DecisionOptions opts;
  opts.rounds = 1;
  const auto result =
      synthesise_solution(*problem, scope, ProblemClass::MB, opts);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->machine->algebraic_class(),
            AlgebraicClass::multiset_broadcast());
  expect_machine_solves(*result, *problem, scope);
}

TEST(Synthesis, MisOnSymmetricCycleReturnsNullopt) {
  const SeparationWitness w = mis_cycle_witness(6);
  EXPECT_FALSE(synthesise_solution(*w.problem, {w.numbering},
                                   ProblemClass::VVc)
                   .has_value());
}

TEST(Synthesis, MisOnAsymmetricPathSynthesised) {
  // On a single asymmetric path instance, a VV formula picking an MIS
  // exists and the compiled machine produces one.
  const auto problem = maximal_independent_set_problem();
  const std::vector<PortNumbering> scope{PortNumbering::identity(path_graph(5))};
  const auto result = synthesise_solution(*problem, scope, ProblemClass::VV);
  ASSERT_TRUE(result.has_value());
  expect_machine_solves(*result, *problem, scope);
}

TEST(Synthesis, RejectsNonBinaryProblems) {
  const std::vector<PortNumbering> scope{PortNumbering::identity(path_graph(3))};
  EXPECT_THROW(synthesise_solution(*three_colouring_problem(), scope,
                                   ProblemClass::VV),
               std::invalid_argument);
}

TEST(Synthesis, FormulaMatchesMachineOnModelChecker) {
  // Internal consistency: model-checking the synthesised formula on each
  // instance equals running the synthesised machine.
  const auto problem = leaf_in_star_problem();
  const auto scope = star_scope(3);
  const auto result = synthesise_solution(*problem, scope, ProblemClass::MV);
  ASSERT_TRUE(result.has_value());
  for (const PortNumbering& p : scope) {
    const KripkeModel k =
        kripke_from_graph(p, kripke_variant_for(ProblemClass::MV),
                          result->delta);
    const auto truth = model_check(k, result->formula);
    const auto r = execute(*result->machine, p);
    for (int v = 0; v < p.graph().num_nodes(); ++v) {
      EXPECT_EQ(truth[v], r.final_states[v].as_int() == 1);
    }
  }
}

// One synthesis call builds the scope's joint model once (one Kripke
// view per instance) and refines it once: the characteristic formulas'
// refinement is the partition the colouring search decides on.
TEST(SynthesisObs, OneJointModelAndOneRefinementPerCall) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  auto work = [] { return obs::registry().snapshot(obs::CounterKind::kWork); };
  auto added = [](const auto& before, const auto& after,
                  const std::string& name) -> std::uint64_t {
    const auto b = before.find(name);
    const auto a = after.find(name);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
  };
  const auto scope = star_scope(4);
  DecisionOptions opts;
  opts.rounds = 1;
  for (const ProblemClass c : {ProblemClass::SV, ProblemClass::MB}) {
    const auto before = work();
    const auto result =
        synthesise_solution(*leaf_in_star_problem(), scope, c, opts);
    const auto after = work();
    EXPECT_EQ(result.has_value(), c == ProblemClass::SV);
    EXPECT_EQ(added(before, after, "kripke.models"), scope.size())
        << problem_class_name(c);
    EXPECT_EQ(added(before, after, "bisim.refinements"), 1u)
        << problem_class_name(c);
  }
  const std::vector<PortNumbering> path{
      PortNumbering::identity(path_graph(5))};
  const auto before = work();
  const auto result =
      synthesise_multivalued(*three_colouring_problem(), path, ProblemClass::VV);
  const auto after = work();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(added(before, after, "kripke.models"), path.size());
  EXPECT_EQ(added(before, after, "bisim.refinements"), 1u);
#endif
}

}  // namespace
}  // namespace wm
