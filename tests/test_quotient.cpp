#include "bisim/quotient.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "graph/generators.hpp"
#include "logic/model_checker.hpp"
#include "logic/random_formula.hpp"
#include "port/port_numbering.hpp"
#include "support/canon_harness.hpp"
#include "support/oracles.hpp"

namespace wm {
namespace {

TEST(Quotient, SymmetricCycleCollapsesToOneState) {
  const KripkeModel k = kripke_from_graph(
      PortNumbering::symmetric_regular(cycle_graph(8)), Variant::PlusPlus);
  const KripkeModel q = minimise(k);
  EXPECT_EQ(q.num_states(), 1);
  // The single state has a self-loop per diagonal relation.
  int loops = 0;
  for (const Modality& alpha : q.modalities()) {
    if (!q.successors(alpha, 0).empty()) ++loops;
  }
  EXPECT_EQ(loops, 2);  // R(1,1) and R(2,2)
}

TEST(Quotient, StarQuotientHasTwoStates) {
  const KripkeModel k = kripke_from_graph(PortNumbering::identity(star_graph(5)),
                                          Variant::MinusMinus);
  const KripkeModel q = minimise(k);
  EXPECT_EQ(q.num_states(), 2);
}

TEST(Quotient, PreservesPropositions) {
  const KripkeModel k = kripke_from_graph(PortNumbering::identity(path_graph(5)),
                                          Variant::MinusMinus);
  const Partition p = coarsest_bisimulation(k);
  const KripkeModel q = quotient_model(k, p);
  for (int v = 0; v < k.num_states(); ++v) {
    for (int prop = 1; prop <= k.num_props(); ++prop) {
      EXPECT_EQ(k.prop_holds(prop, v), q.prop_holds(prop, p.block[v]));
    }
  }
}

class QuotientSemantics : public ::testing::TestWithParam<Variant> {};

TEST_P(QuotientSemantics, UngradedFormulasSurviveQuotienting) {
  Rng frng(static_cast<std::uint64_t>(GetParam()) * 7 + 1);
  Rng grng(2);
  for (int trial = 0; trial < 25; ++trial) {
    const Graph g = random_connected_graph(8, 3, 4, grng);
    const PortNumbering p = PortNumbering::random(g, grng);
    const KripkeModel k = kripke_from_graph(p, GetParam());
    const Partition part = coarsest_bisimulation(k);
    const KripkeModel q = quotient_model(k, part);
    RandomFormulaOptions opts;
    opts.variant = GetParam();
    opts.delta = g.max_degree();
    opts.num_props = g.max_degree();
    opts.graded = false;  // quotient is sound for ungraded logic only
    opts.max_depth = 4;
    for (int i = 0; i < 8; ++i) {
      const Formula f = random_formula(frng, opts);
      const auto big = model_check(k, f);
      const auto small = model_check(q, f);
      for (int v = 0; v < k.num_states(); ++v) {
        EXPECT_EQ(big[v], small[part.block[v]]) << f.to_string();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, QuotientSemantics,
                         ::testing::Values(Variant::PlusPlus, Variant::MinusPlus,
                                           Variant::PlusMinus,
                                           Variant::MinusMinus));

TEST(Quotient, MinimisedModelIsAlreadyMinimal) {
  Rng rng(3);
  const Graph g = random_connected_graph(9, 3, 4, rng);
  const KripkeModel k =
      kripke_from_graph(PortNumbering::random(g, rng), Variant::MinusMinus);
  const KripkeModel q = minimise(k);
  EXPECT_EQ(coarsest_bisimulation(q).num_blocks, q.num_states());
}

class GradedQuotientSemantics : public ::testing::TestWithParam<Variant> {};

TEST_P(GradedQuotientSemantics, GradedFormulasSurviveGradedQuotient) {
  Rng frng(static_cast<std::uint64_t>(GetParam()) * 11 + 2);
  Rng grng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = random_connected_graph(8, 3, 4, grng);
    const PortNumbering p = PortNumbering::random(g, grng);
    const KripkeModel k = kripke_from_graph(p, GetParam());
    const Partition part = coarsest_graded_bisimulation(k);
    const KripkeModel q = graded_quotient_model(k, part);
    RandomFormulaOptions opts;
    opts.variant = GetParam();
    opts.delta = g.max_degree();
    opts.num_props = g.max_degree();
    opts.graded = true;  // multiplicities preserved via parallel edges
    opts.max_depth = 4;
    for (int i = 0; i < 6; ++i) {
      const Formula f = random_formula(frng, opts);
      const auto big = model_check(k, f);
      const auto small = model_check(q, f);
      for (int v = 0; v < k.num_states(); ++v) {
        EXPECT_EQ(big[v], small[part.block[v]]) << f.to_string();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, GradedQuotientSemantics,
                         ::testing::Values(Variant::MinusPlus,
                                           Variant::MinusMinus));

TEST(Quotient, GradedQuotientOfStarKeepsMultiplicity) {
  const KripkeModel k = kripke_from_graph(PortNumbering::identity(star_graph(5)),
                                          Variant::MinusMinus);
  const KripkeModel q = minimise_graded(k);
  EXPECT_EQ(q.num_states(), 2);
  const Formula f = Formula::diamond({0, 0}, Formula::prop(1), 3);
  // The centre block keeps 5 parallel edges to the leaf block.
  const Partition p = coarsest_graded_bisimulation(k);
  EXPECT_TRUE(model_check(q, f)[p.block[0]]);
}

// The graded quotient builds each block's row from its first member's
// successors; the reference fills and scans a count vector per
// (modality, block). Same model — states, valuation, every registered
// relation and every row in order — on multigraphs with parallel edges
// and self-loops, under graded, bounded, ungraded, valuation and
// discrete partitions.
TEST(Quotient, GradedQuotientMatchesCountVectorReference) {
  Rng rng(17);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.below(40));
    const int relations = 1 + static_cast<int>(rng.below(4));
    const int edges = static_cast<int>(rng.below(4 * n + 1));
    const int props = static_cast<int>(rng.below(3));
    const KripkeModel k =
        canontest::random_multigraph_model(rng, n, relations, edges, props);
    Partition discrete;
    discrete.block.resize(static_cast<std::size_t>(n));
    std::iota(discrete.block.begin(), discrete.block.end(), 0);
    discrete.num_blocks = n;
    for (const Partition& p :
         {coarsest_graded_bisimulation(k), coarsest_graded_bisimulation(k, 1),
          coarsest_bisimulation(k), valuation_partition(k), discrete}) {
      const KripkeModel got = graded_quotient_model(k, p);
      const KripkeModel want = graded_quotient_model_reference(k, p);
      EXPECT_EQ(got.to_string(), want.to_string()) << "trial " << trial;
      ASSERT_EQ(got.num_props(), want.num_props());
      for (int q = 1; q <= got.num_props(); ++q) {
        EXPECT_EQ(got.prop_bits(q), want.prop_bits(q)) << "trial " << trial;
      }
    }
  }
}

TEST(Quotient, GradedSemanticsMayDifferAfterQuotient) {
  // Documented limitation: grading counts multiplicities, which the
  // quotient collapses. The star centre sees 5 leaves; in the quotient
  // it sees one leaf-state.
  const KripkeModel k = kripke_from_graph(PortNumbering::identity(star_graph(5)),
                                          Variant::MinusMinus);
  const Partition p = coarsest_bisimulation(k);
  const KripkeModel q = quotient_model(k, p);
  const Formula f = Formula::diamond({0, 0}, Formula::prop(1), 3);
  EXPECT_TRUE(model_check(k, f)[0]);
  EXPECT_FALSE(model_check(q, f)[p.block[0]]);
}

}  // namespace
}  // namespace wm
