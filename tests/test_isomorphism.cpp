// The explicit isomorphism search of tests/support/oracles.hpp, pinned
// on its own before other suites rely on it.
#include <gtest/gtest.h>

#include "graph/double_cover.hpp"
#include "cover/covering.hpp"
#include "graph/generators.hpp"
#include "support/oracles.hpp"

namespace wm {
namespace {

TEST(Isomorphism, IdenticalGraphs) {
  const Graph g = petersen_graph();
  const auto iso = find_isomorphism(g, g);
  ASSERT_TRUE(iso.has_value());
  EXPECT_TRUE(is_isomorphism(g, g, *iso));
}

TEST(Isomorphism, RelabelledGraphs) {
  Rng rng(1);
  for (int trial = 0; trial < 15; ++trial) {
    const Graph g = random_connected_graph(9, 4, 5, rng);
    std::vector<NodeId> perm(9);
    for (int i = 0; i < 9; ++i) perm[i] = i;
    rng.shuffle(perm);
    const Graph h = g.relabelled(perm);
    const auto iso = find_isomorphism(g, h);
    ASSERT_TRUE(iso.has_value());
    EXPECT_TRUE(is_isomorphism(g, h, *iso));
  }
}

TEST(Isomorphism, DistinguishesNonIsomorphicSameDegreeSequence) {
  // K4 vs C3 + isolated? Different degree sequences. Use the classic
  // pair: C6 vs two triangles — both 2-regular on 6 nodes.
  Graph two_triangles(6);
  for (int i = 0; i < 3; ++i) {
    two_triangles.add_edge(i, (i + 1) % 3);
    two_triangles.add_edge(3 + i, 3 + (i + 1) % 3);
  }
  EXPECT_FALSE(are_isomorphic(cycle_graph(6), two_triangles));
  // K3,3 vs the triangular prism: both 3-regular on 6 nodes.
  Graph prism(6);
  for (int i = 0; i < 3; ++i) {
    prism.add_edge(i, (i + 1) % 3);
    prism.add_edge(3 + i, 3 + (i + 1) % 3);
    prism.add_edge(i, 3 + i);
  }
  EXPECT_FALSE(are_isomorphic(complete_bipartite(3, 3), prism));
}

TEST(Isomorphism, SizeMismatches) {
  EXPECT_FALSE(are_isomorphic(path_graph(3), path_graph(4)));
  EXPECT_FALSE(are_isomorphic(cycle_graph(4), path_graph(4)));
}

TEST(Isomorphism, DoubleCoverImplementationsAgree) {
  // The standalone bipartite double cover and the voltage-lift version
  // build isomorphic graphs.
  for (const Graph& g : {cycle_graph(5), petersen_graph(), star_graph(4),
                         grid_graph(2, 3)}) {
    const DoubleCover dc = bipartite_double_cover(g);
    const Lift lift = double_cover_lift(PortNumbering::identity(g));
    EXPECT_TRUE(are_isomorphic(dc.graph, lift.numbering.graph()));
  }
}

TEST(Isomorphism, IsIsomorphismRejectsBadMaps) {
  const Graph g = path_graph(3);
  EXPECT_TRUE(is_isomorphism(g, g, {0, 1, 2}));
  EXPECT_TRUE(is_isomorphism(g, g, {2, 1, 0}));
  EXPECT_FALSE(is_isomorphism(g, g, {1, 0, 2}));  // not edge-preserving
  EXPECT_FALSE(is_isomorphism(g, g, {0, 0, 2}));  // not a bijection
  EXPECT_FALSE(is_isomorphism(g, g, {0, 1}));     // wrong size
}

TEST(Isomorphism, PetersenVsRandomCubic) {
  // The Petersen graph has girth 5; a random cubic graph on 10 nodes is
  // almost surely not isomorphic to it — verify at least one such case.
  Rng rng(7);
  int non_isomorphic = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const Graph h = random_regular_graph(10, 3, rng);
    if (!are_isomorphic(petersen_graph(), h)) ++non_isomorphic;
  }
  EXPECT_GT(non_isomorphic, 0);
}

}  // namespace
}  // namespace wm
