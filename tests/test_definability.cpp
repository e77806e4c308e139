#include "bisim/definability.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "core/classification.hpp"
#include "graph/generators.hpp"
#include "logic/model_checker.hpp"
#include "logic/random_formula.hpp"
#include "port/port_numbering.hpp"

namespace wm {
namespace {

KripkeModel model_of(const Graph& g, Variant variant) {
  return kripke_from_graph(PortNumbering::identity(g), variant);
}

TEST(Definability, DepthZeroIsBooleanClosureOfAtoms) {
  // Path P3 in K--: atoms q1 (endpoints) and q2 (middle) partition into
  // 2 blocks; 4 definable sets at depth 0.
  const KripkeModel k = model_of(path_graph(3), Variant::MinusMinus);
  const auto sets = definable_sets(k, 0, false);
  EXPECT_EQ(sets.size(), 4u);
  EXPECT_TRUE(sets.contains(std::vector<bool>{true, false, true}));   // q1
  EXPECT_TRUE(sets.contains(std::vector<bool>{false, true, false}));  // q2
}

TEST(Definability, FixpointFamilyGrowsWithDepth) {
  const KripkeModel k = model_of(path_graph(5), Variant::MinusMinus);
  const auto d0 = definable_sets(k, 0, false);
  const auto d1 = definable_sets(k, 1, false);
  const auto dfix = definable_sets(k, -1, false);
  EXPECT_LE(d0.size(), d1.size());
  EXPECT_LE(d1.size(), dfix.size());
  // P5 folds into 3 ungraded blocks ({ends}, {1,3}, {2}): 2^3 = 8
  // definable sets at the fixpoint.
  EXPECT_EQ(dfix.size(), 8u);
}

// gtest prints a parameter that has no PrintTo as a dump of its bytes,
// and CTest names each case by that dump. graded is an int, not a bool,
// so the struct has no padding bytes, whose values would be arbitrary.
struct DefCase {
  Variant variant;
  int graded;
};
static_assert(std::has_unique_object_representations_v<DefCase>);

class ExpressiveCompleteness : public ::testing::TestWithParam<DefCase> {};

// The Section 4 backbone: a set is definable at depth t iff it is a
// union of t-step (g-)bisimilarity blocks — for every t up to the
// fixpoint, on random graphs, in every Kripke view.
TEST_P(ExpressiveCompleteness, DefinableEqualsBlockUnions) {
  const DefCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.variant) * 2 + c.graded + 10);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = random_connected_graph(6, 3, 2, rng);
    const PortNumbering p = PortNumbering::random(g, rng);
    const KripkeModel k = kripke_from_graph(p, c.variant);
    for (int t = 0; t <= 3; ++t) {
      const auto sets = definable_sets(k, t, c.graded);
      const Partition part = c.graded ? coarsest_graded_bisimulation(k, t)
                                      : coarsest_bisimulation(k, t);
      const auto unions = unions_of_blocks(part, k.num_states());
      EXPECT_EQ(sets, unions) << variant_name(c.variant) << " graded="
                              << c.graded << " t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Views, ExpressiveCompleteness,
    ::testing::Values(DefCase{Variant::MinusMinus, false},
                      DefCase{Variant::MinusMinus, true},
                      DefCase{Variant::MinusPlus, false},
                      DefCase{Variant::MinusPlus, true},
                      DefCase{Variant::PlusMinus, false},
                      DefCase{Variant::PlusPlus, false}));

TEST(Definability, GradedStrictlyMoreExpressiveOnTheThm13Witness) {
  // On the Theorem 13 witness, GML defines sets ML cannot (the odd-odd
  // solution set among them).
  const SeparationWitness w = thm13_witness();
  const KripkeModel k = kripke_from_graph(w.numbering, Variant::MinusMinus);
  const auto ml = definable_sets(k, -1, false);
  const auto gml = definable_sets(k, -1, true);
  EXPECT_LT(ml.size(), gml.size());
  // The odd-odd solution is GML-definable but not ML-definable.
  std::vector<bool> solution(10);
  for (int v = 0; v < 10; ++v) {
    int odd = 0;
    for (NodeId u : w.graph.neighbours(v)) {
      if (w.graph.degree(u) % 2 == 1) ++odd;
    }
    solution[v] = odd % 2 == 1;
  }
  EXPECT_FALSE(ml.contains(solution));
  EXPECT_TRUE(gml.contains(solution));
}

TEST(Definability, EveryRandomFormulaIsInTheFamily) {
  // Soundness direction, sampled: any depth-<=t formula's truth vector
  // lies in definable_sets(k, t).
  Rng rng(42);
  const Graph g = random_connected_graph(6, 3, 2, rng);
  const PortNumbering p = PortNumbering::random(g, rng);
  const KripkeModel k = kripke_from_graph(p, Variant::MinusMinus);
  const auto sets = definable_sets(k, 2, true);
  RandomFormulaOptions opts;
  opts.variant = Variant::MinusMinus;
  opts.delta = g.max_degree();
  opts.num_props = g.max_degree();
  opts.graded = true;
  opts.max_depth = 2;
  for (int i = 0; i < 100; ++i) {
    const Formula f = random_formula(rng, opts);
    EXPECT_TRUE(sets.contains(model_check(k, f))) << f.to_string();
  }
}

TEST(Definability, BudgetGuard) {
  const KripkeModel k = model_of(petersen_graph(), Variant::PlusPlus);
  EXPECT_THROW(definable_sets(k, -1, false, 8), DefinabilityBudgetError);
}

TEST(Definability, UnionsOfBlocksGuard) {
  Partition p;
  p.num_blocks = 40;
  EXPECT_THROW(unions_of_blocks(p, 40), DefinabilityBudgetError);
}

}  // namespace
}  // namespace wm
