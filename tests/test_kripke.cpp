#include "logic/kripke.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "support/diff_harness.hpp"
#include "util/rng.hpp"

namespace wm {
namespace {

TEST(Kripke, BasicModelOps) {
  KripkeModel k(3, 2);
  k.add_edge({0, 0}, 0, 1);
  k.add_edge({0, 0}, 0, 2);
  k.set_prop(1, 0);
  EXPECT_TRUE(k.prop_holds(1, 0));
  EXPECT_FALSE(k.prop_holds(1, 1));
  EXPECT_EQ(k.successors({0, 0}, 0), (std::vector<int>{1, 2}));
  EXPECT_TRUE(k.successors({0, 0}, 1).empty());
  EXPECT_TRUE(k.successors({1, 1}, 0).empty());  // unregistered relation
}

TEST(Kripke, FromGraphMinusMinusIsSymmetricEdgeRelation) {
  const Graph g = path_graph(3);
  const PortNumbering p = PortNumbering::identity(g);
  const KripkeModel k = kripke_from_graph(p, Variant::MinusMinus);
  // R(*,*) interpreted as a symmetric relation = E.
  EXPECT_EQ(k.successors({0, 0}, 0), (std::vector<int>{1}));
  EXPECT_EQ(k.successors({0, 0}, 1), (std::vector<int>{0, 2}));
  EXPECT_EQ(k.successors({0, 0}, 2), (std::vector<int>{1}));
  // Degree propositions.
  EXPECT_TRUE(k.prop_holds(1, 0));
  EXPECT_TRUE(k.prop_holds(2, 1));
  EXPECT_FALSE(k.prop_holds(1, 1));
}

TEST(Kripke, FromGraphPlusPlusRelationDirections) {
  // Path 0-1-2 with identity numbering: node 1's out-port 1 -> node 0's
  // in-port 1, out-port 2 -> node 2's in-port 1.
  const Graph g = path_graph(3);
  const PortNumbering p = PortNumbering::identity(g);
  const KripkeModel k = kripke_from_graph(p, Variant::PlusPlus);
  // R(i,j) = {(u,v) : p((v,j)) = (u,i)} — u hears v.
  // p((1,1)) = (0,1): so (0,1) in R(1,1).
  EXPECT_EQ(k.successors({1, 1}, 0), (std::vector<int>{1}));
  // p((1,2)) = (2,1): so (2,1) in R(1,2).
  EXPECT_EQ(k.successors({1, 2}, 2), (std::vector<int>{1}));
  // Node 1 hears node 0 via (1,1) and node 2 via (2,1).
  EXPECT_EQ(k.successors({1, 1}, 1), (std::vector<int>{0}));
  EXPECT_EQ(k.successors({2, 1}, 1), (std::vector<int>{2}));
  // Every in-port has exactly one feeding relation entry.
  int total = 0;
  for (const Modality& alpha : k.modalities()) {
    for (int v = 0; v < k.num_states(); ++v) {
      total += static_cast<int>(k.successors(alpha, v).size());
    }
  }
  EXPECT_EQ(total, 2 * g.num_edges());
}

TEST(Kripke, FromGraphSignatureRegistration) {
  const Graph g = cycle_graph(4);
  const PortNumbering p = PortNumbering::identity(g);
  EXPECT_EQ(kripke_from_graph(p, Variant::PlusPlus).modalities().size(), 4u);
  EXPECT_EQ(kripke_from_graph(p, Variant::MinusPlus).modalities().size(), 2u);
  EXPECT_EQ(kripke_from_graph(p, Variant::PlusMinus).modalities().size(), 2u);
  EXPECT_EQ(kripke_from_graph(p, Variant::MinusMinus).modalities().size(), 1u);
}

TEST(Kripke, FromGraphWithLargerDelta) {
  const Graph g = path_graph(2);
  const PortNumbering p = PortNumbering::identity(g);
  const KripkeModel k = kripke_from_graph(p, Variant::PlusPlus, 3);
  EXPECT_EQ(k.num_props(), 3);
  EXPECT_EQ(k.modalities().size(), 9u);
  EXPECT_THROW(kripke_from_graph(p, Variant::PlusPlus, 0), std::invalid_argument);
}

TEST(Kripke, UnionsInMinusPlusView) {
  // Star: all leaves send via their out-port 1 into distinct centre
  // in-ports; in K_{-,+} the centre's R(*,1)-successors are all leaves.
  const Graph g = star_graph(3);
  const PortNumbering p = PortNumbering::identity(g);
  const KripkeModel k = kripke_from_graph(p, Variant::MinusPlus);
  EXPECT_EQ(k.successors({0, 1}, 0), (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(k.successors({0, 2}, 0).empty());  // leaves have no port 2
}

/// A random union part: 0..5 states, 0..3 props, a random subset of
/// five modalities (so two parts' modality sets may be disjoint), and
/// edges drawn with repetition, some added twice (graded multiplicity).
KripkeModel random_part(Rng& rng) {
  const int n = static_cast<int>(rng.below(6));
  const int props = static_cast<int>(rng.below(4));
  KripkeModel k(n, props);
  for (const Modality alpha : {Modality{0, 0}, Modality{1, 0}, Modality{0, 1},
                               Modality{1, 2}, Modality{2, 1}}) {
    if (rng.below(2) == 0) continue;
    k.ensure_relation(alpha);
    for (std::uint64_t e = 0, m = rng.below(2 * n + 1); e < m; ++e) {
      const int from = static_cast<int>(rng.below(n));
      const int to = static_cast<int>(rng.below(n));
      k.add_edge(alpha, from, to);
      if (rng.below(4) == 0) k.add_edge(alpha, from, to);
    }
  }
  for (int q = 1; q <= props; ++q) {
    for (int v = 0; v < n; ++v) {
      if (rng.below(2) == 1) k.set_prop(q, v);
    }
  }
  return k;
}

/// The n-ary union must equal a left fold of the binary overload: same
/// relations (to_string lists registered-but-empty ones too), same prop
/// rows, and offsets equal to the fold's state count before each part.
void expect_union_matches_fold(const std::vector<KripkeModel>& parts) {
  std::vector<int> offsets;
  const KripkeModel u = KripkeModel::disjoint_union(parts, &offsets);
  KripkeModel fold(0, 0);
  std::vector<int> fold_offsets;
  for (const KripkeModel& k : parts) {
    fold_offsets.push_back(fold.num_states());
    fold = KripkeModel::disjoint_union(fold, k);
  }
  EXPECT_EQ(u.to_string(), fold.to_string());
  EXPECT_EQ(offsets, fold_offsets);
  ASSERT_EQ(u.num_props(), fold.num_props());
  for (int q = 1; q <= u.num_props(); ++q) {
    EXPECT_EQ(u.prop_bits(q), fold.prop_bits(q)) << "q=" << q;
  }
}

TEST(Kripke, DisjointUnion) {
  const Graph g = path_graph(2);
  const PortNumbering p = PortNumbering::identity(g);
  const KripkeModel a = kripke_from_graph(p, Variant::MinusMinus);
  const KripkeModel u = KripkeModel::disjoint_union(a, a);
  EXPECT_EQ(u.num_states(), 4);
  EXPECT_EQ(u.successors({0, 0}, 2), (std::vector<int>{3}));
  EXPECT_TRUE(u.prop_holds(1, 2));

  // Empty part list: the empty model, no offsets.
  std::vector<int> offsets = {7};
  const KripkeModel none = KripkeModel::disjoint_union({}, &offsets);
  EXPECT_EQ(none.to_string(), KripkeModel(0, 0).to_string());
  EXPECT_TRUE(offsets.empty());

  // Fixed edge cases: a zero-state part that still registers a modality
  // and carries props, different num_props, disjoint modality sets, and
  // a duplicate (graded) edge.
  KripkeModel zero(0, 3);
  zero.ensure_relation({2, 2});
  KripkeModel graded(2, 1);
  graded.add_edge({1, 0}, 0, 1);
  graded.add_edge({1, 0}, 0, 1);
  graded.set_prop(1, 1);
  const std::vector<KripkeModel> fixed = {graded, zero, a, graded};
  expect_union_matches_fold(fixed);
  const KripkeModel joint = KripkeModel::disjoint_union(fixed);
  EXPECT_EQ(joint.num_props(), 3);
  EXPECT_EQ(joint.successors({1, 0}, 4), (std::vector<int>{5, 5}));
  EXPECT_TRUE(joint.has_relation({2, 2}));
  EXPECT_TRUE(joint.successors({0, 0}, 0).empty());

  // Seeded differential over random part lists (0..6 parts).
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng rng(seed);
    for (int c = 0; c < 100; ++c) {
      std::vector<KripkeModel> parts(rng.below(7));
      for (KripkeModel& k : parts) k = random_part(rng);
      SCOPED_TRACE("seed=" + std::to_string(seed) + " case " +
                   std::to_string(c));
      expect_union_matches_fold(parts);
    }
  }
}

TEST(Kripke, IsolatedNodesHaveNoProps) {
  Graph g(2);
  g.add_edge(0, 1);
  Graph h(3);
  h.add_edge(0, 1);  // node 2 isolated
  const KripkeModel k =
      kripke_from_graph(PortNumbering::identity(h), Variant::MinusMinus);
  EXPECT_FALSE(k.prop_holds(1, 2));
  EXPECT_TRUE(k.prop_holds(1, 0));
}

}  // namespace
}  // namespace wm
