#include "cover/covering.hpp"

#include <gtest/gtest.h>

#include "algorithms/machines.hpp"
#include "bisim/bisimulation.hpp"
#include "cover/views.hpp"
#include "graph/double_cover.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "logic/kripke.hpp"
#include "runtime/engine.hpp"
#include "support/oracles.hpp"

namespace wm {
namespace {

TEST(Covering, DisjointCopiesAreACover) {
  Rng rng(1);
  const Graph g = random_connected_graph(6, 3, 3, rng);
  const PortNumbering p = PortNumbering::random(g, rng);
  const Lift lift = disjoint_copies(p, 3);
  EXPECT_EQ(lift.numbering.graph().num_nodes(), 18);
  EXPECT_TRUE(is_covering_map(lift.numbering, p, lift.projection));
  EXPECT_EQ(connected_components(lift.numbering.graph()).size(), 3u);
}

TEST(Covering, DoubleCoverLiftMatchesGraphModule) {
  const Graph g = cycle_graph(5);
  const PortNumbering p = PortNumbering::identity(g);
  const Lift lift = double_cover_lift(p);
  EXPECT_TRUE(is_covering_map(lift.numbering, p, lift.projection));
  const Graph& lifted = lift.numbering.graph();
  EXPECT_TRUE(bipartition(lifted).has_value());
  EXPECT_EQ(lifted.num_nodes(), 10);
  EXPECT_EQ(lifted.num_edges(), 10);
  // Same graph (up to node order) as the standalone double cover —
  // checked by actual isomorphism, not just the degree sequence.
  const DoubleCover dc = bipartite_double_cover(g);
  EXPECT_TRUE(are_isomorphic(dc.graph, lifted));
}

TEST(Covering, RandomVoltageLiftsAreCovers) {
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = random_connected_graph(7, 3, 3, rng);
    const PortNumbering p = PortNumbering::random(g, rng);
    const int k = 2 + static_cast<int>(rng.below(3));
    const Lift lift = random_voltage_lift(p, k, rng);
    EXPECT_TRUE(is_covering_map(lift.numbering, p, lift.projection));
  }
}

TEST(Covering, RejectsBadVoltage) {
  const PortNumbering p = PortNumbering::identity(path_graph(2));
  EXPECT_THROW(
      voltage_lift(p, 2, [](NodeId, NodeId) { return std::vector<int>{0, 0}; }),
      std::invalid_argument);
  EXPECT_THROW(
      voltage_lift(p, 2, [](NodeId, NodeId) { return std::vector<int>{0}; }),
      std::invalid_argument);
}

TEST(Covering, IsCoveringMapRejectsNonCovers) {
  const Graph g = path_graph(3);
  const PortNumbering p = PortNumbering::identity(g);
  // Identity on the same graph IS a cover; swapping endpoints is not.
  EXPECT_TRUE(is_covering_map(p, p, {0, 1, 2}));
  EXPECT_FALSE(is_covering_map(p, p, {2, 1, 0}));
  // Non-surjective maps are rejected.
  const Lift two = disjoint_copies(p, 2);
  auto phi = two.projection;
  EXPECT_TRUE(is_covering_map(two.numbering, p, phi));
  // Break a single fibre.
  phi[0] = 1;
  EXPECT_FALSE(is_covering_map(two.numbering, p, phi));
}

TEST(Covering, AngluinLiftingLemmaForExecutions) {
  // Executions commute with covering maps: x_t(h) == x_t(phi(h)) — for
  // any machine, any class. Checked for the odd-odd (MB), leaf picker
  // (SV) and a Vector port-probe machine on random voltage lifts.
  Rng rng(3);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph g = random_connected_graph(7, 3, 3, rng);
    const PortNumbering p = PortNumbering::random(g, rng);
    const Lift lift = random_voltage_lift(p, 3, rng);
    ASSERT_TRUE(is_covering_map(lift.numbering, p, lift.projection));
    for (const auto& machine : {odd_odd_machine(), leaf_picker_machine(),
                                local_type_maximum_machine(3)}) {
      const auto base_run = execute(*machine, p);
      const auto lift_run = execute(*machine, lift.numbering);
      ASSERT_TRUE(base_run.stopped);
      ASSERT_TRUE(lift_run.stopped);
      EXPECT_EQ(base_run.rounds, lift_run.rounds);
      for (NodeId h = 0; h < lift.numbering.graph().num_nodes(); ++h) {
        EXPECT_EQ(lift_run.final_states[h],
                  base_run.final_states[lift.projection[h]]);
      }
    }
  }
}

TEST(Covering, CoversInduceBisimulations) {
  // h and phi(h) are bisimilar in the joint K_{+,+} model.
  Rng rng(4);
  const Graph g = random_connected_graph(6, 3, 2, rng);
  const PortNumbering p = PortNumbering::random(g, rng);
  const Lift lift = random_voltage_lift(p, 2, rng);
  const KripkeModel base = kripke_from_graph(p, Variant::PlusPlus);
  const KripkeModel cover = kripke_from_graph(lift.numbering, Variant::PlusPlus,
                                              g.max_degree());
  for (NodeId h = 0; h < lift.numbering.graph().num_nodes(); ++h) {
    EXPECT_TRUE(bisimilar_across(cover, h, base, lift.projection[h]));
  }
}

TEST(Covering, CoversPreserveViews) {
  Rng rng(5);
  const Graph g = random_connected_graph(6, 3, 2, rng);
  const PortNumbering p = PortNumbering::random(g, rng);
  const Lift lift = random_voltage_lift(p, 2, rng);
  const int depth = 6;
  const auto base_views = views(p, depth);
  const auto lift_views = views(lift.numbering, depth);
  for (NodeId h = 0; h < lift.numbering.graph().num_nodes(); ++h) {
    EXPECT_EQ(lift_views[h], base_views[lift.projection[h]]);
  }
}

TEST(Covering, SingleLayerLiftIsIdentity) {
  const Graph g = petersen_graph();
  const PortNumbering p = PortNumbering::identity(g);
  const Lift lift = disjoint_copies(p, 1);
  EXPECT_EQ(lift.numbering.graph(), g);
  EXPECT_EQ(lift.numbering, p);
}

}  // namespace
}  // namespace wm
