// Property and metamorphic tests for the canonical-form subsystem
// (graph/canonical.hpp): relabelling invariance across all three
// reduction kinds, completeness cross-checked against the exhaustive
// isomorphism test, discreteness of the final colouring, and
// automorphism-group sanity on structures whose groups are known.
//
// Seeded sweeps follow the WM_SEED convention of canon_harness.hpp.
#include "graph/canonical.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "bisim/quotient.hpp"
#include "graph/enumerate.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/isomorphism.hpp"
#include "logic/kripke.hpp"
#include "port/port_numbering.hpp"
#include "support/canon_harness.hpp"
#include "util/rng.hpp"

namespace wm {
namespace {

using canontest::automorphism_count;
using canontest::is_structure_automorphism;
using canontest::random_kripke_model;
using canontest::random_permutation;
using canontest::relabelled_model;
using canontest::relabelled_numbering;
using canontest::seeds_under_test;

constexpr int kCasesPerSeed = 100;  // x5 base seeds = 500 cases per kind

bool is_permutation_of_range(const std::vector<int>& lab, int n) {
  if (static_cast<int>(lab.size()) != n) return false;
  std::vector<bool> hit(static_cast<std::size_t>(n), false);
  for (int x : lab) {
    if (x < 0 || x >= n || hit[x]) return false;
    hit[x] = true;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Relabelling invariance: for every structure kind, the certificate of a
// randomly relabelled copy is byte-identical, the labelling is a
// permutation (the search only terminates on discrete colourings), the
// composed map old -> canonical -> relabelled-old is a genuine
// isomorphism, and every discovered automorphism is genuine.
// ---------------------------------------------------------------------------

TEST(CanonicalInvariance, GraphCertificateSurvivesRelabelling) {
  for (const std::uint64_t seed : seeds_under_test()) {
    Rng rng(seed);
    for (int c = 0; c < kCasesPerSeed; ++c) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
      const int n = 2 + static_cast<int>(rng.below(7));  // 2..8 nodes
      const Graph g = random_connected_graph(
          n, /*max_deg=*/3 + static_cast<int>(rng.below(3)),
          static_cast<int>(rng.below(4)), rng);
      const std::vector<int> perm = random_permutation(g.num_nodes(), rng);
      const Graph h = g.relabelled(perm);

      const CanonicalForm cf_g = canonical_form(g);
      const CanonicalForm cf_h = canonical_form(h);
      ASSERT_EQ(cf_g.certificate, cf_h.certificate);
      ASSERT_TRUE(is_permutation_of_range(cf_g.labelling, g.num_nodes()));
      ASSERT_TRUE(is_permutation_of_range(cf_h.labelling, g.num_nodes()));
      EXPECT_EQ(canonical_hash(g), canonical_hash(h));

      // Compose g --lab_g--> canonical <--lab_h-- h into a g -> h map.
      std::vector<NodeId> inv_h(static_cast<std::size_t>(g.num_nodes()));
      for (int v = 0; v < g.num_nodes(); ++v) inv_h[cf_h.labelling[v]] = v;
      std::vector<NodeId> map(static_cast<std::size_t>(g.num_nodes()));
      for (int v = 0; v < g.num_nodes(); ++v) map[v] = inv_h[cf_g.labelling[v]];
      EXPECT_TRUE(is_isomorphism(g, h, map));

      const RelationalStructure s = structure_of(g);
      for (const auto& a : cf_g.automorphisms) {
        EXPECT_TRUE(is_structure_automorphism(s, a));
      }
    }
  }
}

TEST(CanonicalInvariance, PortNumberingCertificateSurvivesRelabelling) {
  for (const std::uint64_t seed : seeds_under_test()) {
    Rng rng(seed);
    for (int c = 0; c < kCasesPerSeed; ++c) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
      const int n = 2 + static_cast<int>(rng.below(5));  // 2..6 nodes
      const Graph g = random_connected_graph(n, /*max_deg=*/3,
                                             static_cast<int>(rng.below(3)), rng);
      const PortNumbering p = rng.chance(1, 2)
                                  ? PortNumbering::random(g, rng)
                                  : PortNumbering::random_consistent(g, rng);
      const std::vector<NodeId> perm = random_permutation(g.num_nodes(), rng);
      const PortNumbering q = relabelled_numbering(p, perm);
      ASSERT_TRUE(q.is_valid());

      const CanonicalForm cf_p = canonical_form(p);
      const CanonicalForm cf_q = canonical_form(q);
      ASSERT_EQ(cf_p.certificate, cf_q.certificate);
      ASSERT_TRUE(is_permutation_of_range(cf_p.labelling, g.num_nodes()));
      EXPECT_EQ(canonical_hash(p), canonical_hash(q));
      EXPECT_TRUE(is_isomorphic(p, q));

      const RelationalStructure s = structure_of(p);
      for (const auto& a : cf_p.automorphisms) {
        EXPECT_TRUE(is_structure_automorphism(s, a));
      }
    }
  }
}

TEST(CanonicalInvariance, KripkeCertificateSurvivesRelabelling) {
  for (const std::uint64_t seed : seeds_under_test()) {
    Rng rng(seed);
    for (int c = 0; c < kCasesPerSeed; ++c) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
      const KripkeModel k = random_kripke_model(rng);
      const std::vector<int> perm = random_permutation(k.num_states(), rng);
      const KripkeModel m = relabelled_model(k, perm);

      const CanonicalForm cf_k = canonical_form(k);
      const CanonicalForm cf_m = canonical_form(m);
      ASSERT_EQ(cf_k.certificate, cf_m.certificate);
      ASSERT_TRUE(is_permutation_of_range(cf_k.labelling, k.num_states()));
      EXPECT_EQ(canonical_hash(k), canonical_hash(m));
      EXPECT_TRUE(is_isomorphic(k, m));

      const RelationalStructure s = structure_of(k);
      for (const auto& a : cf_k.automorphisms) {
        EXPECT_TRUE(is_structure_automorphism(s, a));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Completeness vs the exhaustive backtracking test: on an exhaustive
// enumeration, equal certificates must mean isomorphic (within-bucket
// checked by the pre-existing exact test) and distinct certificates must
// mean non-isomorphic (cross-bucket representatives pairwise refuted).
// The n=7 analogue lives in test_canonical_slow.cpp.
// ---------------------------------------------------------------------------

TEST(CanonicalCompleteness, AgreesWithExhaustiveIsoUpTo6) {
  for (int n = 1; n <= 6; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    EnumerateOptions opts;
    opts.connected_only = false;
    std::map<std::string, std::vector<Graph>> buckets;
    enumerate_graphs(n, opts, [&](const Graph& g) {
      buckets[canonical_certificate(g)].push_back(g);
      return true;
    });
    // Within a bucket: every member isomorphic to the representative,
    // per the pre-existing exhaustive backtracking test (n <= 6 stays
    // below its cutoff, so no canonical routing is involved).
    for (const auto& [cert, members] : buckets) {
      for (std::size_t i = 1; i < members.size(); ++i) {
        ASSERT_TRUE(find_isomorphism(members[0], members[i]).has_value());
      }
    }
    // Across buckets: representatives pairwise non-isomorphic.
    std::vector<const Graph*> reps;
    reps.reserve(buckets.size());
    for (const auto& [cert, members] : buckets) reps.push_back(&members[0]);
    for (std::size_t i = 0; i < reps.size(); ++i) {
      for (std::size_t j = i + 1; j < reps.size(); ++j) {
        ASSERT_FALSE(find_isomorphism(*reps[i], *reps[j]).has_value());
      }
    }
  }
}

TEST(CanonicalCompleteness, RefinementEquivalentPairsAreSeparated) {
  // K_{3,3} and the triangular prism are both 3-regular on 6 nodes, so
  // colour refinement cannot tell them apart — the canonical form must.
  const Graph k33 = complete_bipartite(3, 3);
  Graph prism(6);
  prism.add_edge(0, 1);
  prism.add_edge(1, 2);
  prism.add_edge(2, 0);
  prism.add_edge(3, 4);
  prism.add_edge(4, 5);
  prism.add_edge(5, 3);
  prism.add_edge(0, 3);
  prism.add_edge(1, 4);
  prism.add_edge(2, 5);
  EXPECT_NE(canonical_certificate(k33), canonical_certificate(prism));
  EXPECT_FALSE(is_isomorphic(k33, prism));

  // Likewise C6 vs two disjoint triangles (both 2-regular).
  const Graph c6 = cycle_graph(6);
  Graph two_c3(6);
  two_c3.add_edge(0, 1);
  two_c3.add_edge(1, 2);
  two_c3.add_edge(2, 0);
  two_c3.add_edge(3, 4);
  two_c3.add_edge(4, 5);
  two_c3.add_edge(5, 3);
  EXPECT_NE(canonical_certificate(c6), canonical_certificate(two_c3));
  EXPECT_FALSE(is_isomorphic(c6, two_c3));
}

TEST(CanonicalCompleteness, LargeGraphRoutingMatchesWitness) {
  // Above the exhaustive cutoff find_isomorphism routes through the
  // canonical form; the returned witness must still be a genuine map.
  Rng rng(2012);
  const Graph g = random_connected_graph(12, 4, 5, rng);
  const std::vector<NodeId> perm = random_permutation(g.num_nodes(), rng);
  const Graph h = g.relabelled(perm);
  const auto witness = find_isomorphism(g, h);
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(is_isomorphism(g, h, *witness));

  // And a genuinely different 12-node graph must be refuted.
  Graph h2 = h;
  // Petersen + 2 isolated nodes has a different degree multiset only if
  // g does not happen to be 3-regular; instead compare against g with one
  // edge moved, which is almost surely non-isomorphic but keeps n.
  const auto edges = h2.edges();
  Graph g2(g.num_nodes());
  for (std::size_t i = 1; i < edges.size(); ++i) {
    g2.add_edge(edges[i].u, edges[i].v);
  }
  if (canonical_certificate(g2) != canonical_certificate(h)) {
    EXPECT_FALSE(find_isomorphism(g2, h).has_value());
  }
}

// ---------------------------------------------------------------------------
// Discreteness: refine_colours on the canonical labelling's preimage is
// the identity partition refinement story — exercised indirectly above —
// and refine_colours itself must be relabelling-invariant as *numbers*.
// ---------------------------------------------------------------------------

TEST(CanonicalRefinement, ColourIdsAreRelabellingInvariant) {
  for (const std::uint64_t seed : seeds_under_test()) {
    Rng rng(seed);
    for (int c = 0; c < 20; ++c) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
      const Graph g = random_connected_graph(
          2 + static_cast<int>(rng.below(6)), 4, static_cast<int>(rng.below(4)),
          rng);
      const std::vector<int> perm = random_permutation(g.num_nodes(), rng);
      const Graph h = g.relabelled(perm);
      const RelationalStructure sg = structure_of(g);
      const RelationalStructure sh = structure_of(h);
      const std::vector<int> cg = refine_colours(sg, sg.colour);
      const std::vector<int> ch = refine_colours(sh, sh.colour);
      // Node v of g is node perm[v] of h: the refined colour *numbers*
      // must transport along the relabelling.
      for (int v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(cg[v], ch[perm[v]]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Automorphism-group sanity on known groups. canonical_form reports
// discovered generators; the brute-force count is the ground truth.
// ---------------------------------------------------------------------------

TEST(CanonicalAutomorphisms, CycleGroupsHaveOrder2n) {
  for (int n = 4; n <= 8; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    EXPECT_EQ(automorphism_count(cycle_graph(n)),
              static_cast<std::uint64_t>(2 * n));
  }
}

TEST(CanonicalAutomorphisms, CompleteBipartiteGroups) {
  // |Aut(K_{a,b})| = a! b! for a != b, doubled for a == b.
  EXPECT_EQ(automorphism_count(complete_bipartite(2, 3)), 2u * 6u);
  EXPECT_EQ(automorphism_count(complete_bipartite(3, 3)), 6u * 6u * 2u);
}

TEST(CanonicalAutomorphisms, DiscoveredGeneratorsAreGenuine) {
  // On symmetric graphs the search must discover at least one
  // non-trivial automorphism (certificate ties are unavoidable), and
  // every reported generator must verify.
  const Graph graphs[] = {cycle_graph(6), complete_bipartite(3, 3),
                          complete_graph(5), hypercube(3)};
  for (const Graph& g : graphs) {
    SCOPED_TRACE(g.to_string());
    const CanonicalForm cf = canonical_form(g);
    EXPECT_FALSE(cf.automorphisms.empty());
    const RelationalStructure s = structure_of(g);
    for (const auto& a : cf.automorphisms) {
      EXPECT_TRUE(is_structure_automorphism(s, a));
      EXPECT_TRUE(is_isomorphism(g, g, a));
    }
  }
}

TEST(CanonicalAutomorphisms, Fig9aGadgetGroupAndHubFixing) {
  // One 5-node gadget of the Figure 9a / class-G construction (k = 3):
  // K_4 minus an edge {d, e} plus an apex adjacent to d and e. Its
  // automorphism group has order 4 (swap d <-> e, swap the two K_4
  // nodes off the removed edge, independently).
  Graph gadget(5);
  // apex = 0; K4 nodes 1..4 with edge {3,4} removed; apex adj 3, 4.
  gadget.add_edge(1, 2);
  gadget.add_edge(1, 3);
  gadget.add_edge(1, 4);
  gadget.add_edge(2, 3);
  gadget.add_edge(2, 4);
  gadget.add_edge(0, 3);
  gadget.add_edge(0, 4);
  EXPECT_EQ(automorphism_count(gadget), 4u);

  // On the full 16-node fig9a graph: swapping two entire gadgets (the
  // construction places gadget gi at nodes 1+5*gi .. 5+5*gi) is an
  // automorphism, and every discovered automorphism fixes the hub 0 —
  // the unique node whose removal leaves three odd components.
  const Graph fig9a = fig9a_graph();
  ASSERT_EQ(fig9a.num_nodes(), 16);
  std::vector<NodeId> swap01(16);
  std::iota(swap01.begin(), swap01.end(), 0);
  for (int i = 0; i < 5; ++i) {
    swap01[1 + i] = 6 + i;
    swap01[6 + i] = 1 + i;
  }
  EXPECT_TRUE(is_isomorphism(fig9a, fig9a, swap01));

  const CanonicalForm cf = canonical_form(fig9a);
  for (const auto& a : cf.automorphisms) {
    EXPECT_TRUE(is_isomorphism(fig9a, fig9a, a));
    EXPECT_EQ(a[0], 0);
  }
}

// ---------------------------------------------------------------------------
// Kripke-specific completeness: a colour-refinement fingerprint can split
// an isomorphism class (symmetric states fall back to index order); the
// canonical fingerprint cannot.
// ---------------------------------------------------------------------------

TEST(CanonicalKripke, CanonicalKeyMergesWhatRefinementSplits) {
  // A 6-cycle view: all states share one refinement colour, so an
  // index-ordered fingerprint tells rotated copies apart — while they
  // are isomorphic.
  const Graph c6 = cycle_graph(6);
  const PortNumbering p = PortNumbering::identity(c6);
  const KripkeModel k = kripke_from_graph(p, Variant::MinusMinus);

  std::vector<int> rot(6);
  for (int v = 0; v < 6; ++v) rot[v] = (v + 1) % 6;
  // Rotate the underlying graph's numbering instead of the model
  // directly so the relabelled model is still a kripke_from_graph image.
  const KripkeModel m = canontest::relabelled_model(k, rot);

  EXPECT_EQ(model_fingerprint(k), model_fingerprint(m));
  EXPECT_TRUE(is_isomorphic(k, m));

  // Random relabellings of asymmetric-profile models: the canonical key
  // merges every pair. The scan is deterministic.
  Rng rng(7);
  for (int c = 0; c < 200; ++c) {
    const KripkeModel base = random_kripke_model(rng);
    const std::vector<int> perm = random_permutation(base.num_states(), rng);
    const KripkeModel relab = relabelled_model(base, perm);
    ASSERT_EQ(model_fingerprint(base), model_fingerprint(relab)) << c;
  }
}

TEST(CanonicalKripke, EmptyAndTrivialModels) {
  const KripkeModel empty(0, 0);
  EXPECT_EQ(canonical_certificate(empty), canonical_certificate(KripkeModel(0, 0)));

  KripkeModel one(1, 1);
  one.set_prop(1, 0);
  KripkeModel other(1, 1);
  EXPECT_NE(canonical_certificate(one), canonical_certificate(other));

  // Registered-but-empty relations are part of the signature.
  KripkeModel with_rel(2, 0);
  with_rel.ensure_relation(Modality{0, 0});
  const KripkeModel without_rel(2, 0);
  EXPECT_NE(canonical_certificate(with_rel), canonical_certificate(without_rel));
}

}  // namespace
}  // namespace wm
