// Differential and golden tests for the canonical-form engine
// (graph/canonical.cpp):
//
//  - oracle equality: the shipped engine against the pre-arena reference
//    engine (canonical_form_reference, tests/support/oracles.hpp) on
//    exhaustive and seeded populations of all three reduction kinds.
//    Certificates, labellings and refined colourings must match exactly.
//    The shipped search unwinds to the common ancestor when a leaf ties
//    the best one, so it may discover fewer automorphisms than the
//    reference; every one it reports must be genuine.
//  - golden certificate bytes: certificates are persisted (store
//    segments, the nightly census cache, serve cache keys and `canon`
//    replies), so an engine change that alters their bytes must fail
//    here rather than silently orphan stored data.
//  - search bounds on symmetric inputs: deterministic generator and leaf
//    counts for edgeless and complete graphs and an edgeless Kripke
//    model, which a search without backjumping explores in ~n^6 time.
//
// Seeded sweeps follow the WM_SEED convention of canon_harness.hpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "graph/canonical.hpp"
#include "graph/enumerate.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "logic/kripke.hpp"
#include "obs/counters.hpp"
#include "port/port_numbering.hpp"
#include "support/canon_harness.hpp"
#include "support/oracles.hpp"
#include "util/rng.hpp"

namespace wm {
namespace {

using canontest::is_structure_automorphism;
using canontest::seeds_under_test;

constexpr Variant kVariants[] = {Variant::PlusPlus, Variant::MinusPlus,
                                 Variant::PlusMinus, Variant::MinusMinus};

void expect_matches_reference(const RelationalStructure& s) {
  const CanonicalForm got = canonical_form(s);
  const CanonicalForm want = canonical_form_reference(s);
  ASSERT_EQ(got.certificate, want.certificate);
  ASSERT_EQ(got.labelling, want.labelling);
  for (const std::vector<int>& a : got.automorphisms) {
    ASSERT_TRUE(is_structure_automorphism(s, a));
  }
}

/// A random Kripke model outside the kripke_from_graph population:
/// parallel edges and self-loops, up to three propositions (so several
/// valuation profiles), and sometimes a registered-but-empty modality.
KripkeModel random_multigraph_model(Rng& rng) {
  const int n = 1 + static_cast<int>(rng.below(9));
  const int props = static_cast<int>(rng.below(4));
  KripkeModel k(n, props);
  const int mods = 1 + static_cast<int>(rng.below(3));
  for (int m = 0; m < mods; ++m) {
    const Modality alpha{m, static_cast<int>(rng.below(2))};
    k.ensure_relation(alpha);
    if (m == mods - 1 && rng.chance(1, 3)) continue;  // registered, empty
    const int edges = static_cast<int>(rng.below(2 * n + 1));
    for (int e = 0; e < edges; ++e) {
      k.add_edge(alpha, static_cast<int>(rng.below(n)),
                 static_cast<int>(rng.below(n)));
    }
  }
  for (int q = 1; q <= props; ++q) {
    for (int v = 0; v < n; ++v) {
      if (rng.chance(1, 2)) k.set_prop(q, v);
    }
  }
  return k;
}

// ---------------------------------------------------------------------------
// Oracle equality
// ---------------------------------------------------------------------------

TEST(CanonicalOracle, EveryGraphUpTo6) {
  EXPECT_EQ(canonical_form(Graph(0)).certificate,
            canonical_form_reference(structure_of(Graph(0))).certificate);
  EnumerateOptions opts;
  opts.connected_only = false;
  for (int n = 1; n <= 6; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    enumerate_graphs(n, opts, [&](const Graph& g) {
      expect_matches_reference(structure_of(g));
      return !::testing::Test::HasFatalFailure();
    });
  }
}

TEST(CanonicalOracle, SeededPortNumberingsAndAllFourKripkeViews) {
  for (const std::uint64_t seed : seeds_under_test()) {
    Rng rng(seed);
    for (int c = 0; c < 40; ++c) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
      const int n = 2 + static_cast<int>(rng.below(7));  // 2..8 nodes
      const Graph g = random_connected_graph(
          n, /*max_deg=*/3 + static_cast<int>(rng.below(2)),
          static_cast<int>(rng.below(4)), rng);
      const PortNumbering general = PortNumbering::random(g, rng);
      const PortNumbering consistent = PortNumbering::random_consistent(g, rng);
      for (const PortNumbering* p : {&general, &consistent}) {
        expect_matches_reference(structure_of(*p));
        for (const Variant v : kVariants) {
          expect_matches_reference(structure_of(kripke_from_graph(*p, v)));
        }
      }
    }
  }
}

TEST(CanonicalOracle, RandomKripkeModelsWithParallelEdgesAndEmptyModalities) {
  for (const std::uint64_t seed : seeds_under_test()) {
    Rng rng(seed);
    for (int c = 0; c < 100; ++c) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
      expect_matches_reference(structure_of(random_multigraph_model(rng)));
    }
  }
}

TEST(CanonicalOracle, SymmetricGraphsUpTo24) {
  for (int n = 1; n <= 24; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    expect_matches_reference(structure_of(Graph(n)));
    expect_matches_reference(structure_of(complete_graph(n)));
    if (n >= 3) expect_matches_reference(structure_of(cycle_graph(n)));
  }
  expect_matches_reference(structure_of(petersen_graph()));
  expect_matches_reference(structure_of(hypercube(4)));
  expect_matches_reference(structure_of(complete_bipartite(4, 5)));
}

TEST(CanonicalOracle, RefineColoursOnIndividualisedInputs) {
  // Individualisation doubles every id and gives the chosen vertex 2c-1,
  // so a vertex of class 0 enters refinement as -1; ids far apart or
  // negative must refine like the reference too.
  for (const std::uint64_t seed : seeds_under_test()) {
    Rng rng(seed);
    for (int c = 0; c < 30; ++c) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " case=" + std::to_string(c));
      const RelationalStructure s =
          rng.chance(1, 2)
              ? structure_of(random_connected_graph(
                    2 + static_cast<int>(rng.below(8)), 4,
                    static_cast<int>(rng.below(4)), rng))
              : structure_of(random_multigraph_model(rng));
      const std::vector<int> stable = refine_colours_reference(s, s.colour);
      ASSERT_EQ(refine_colours(s, s.colour), stable);
      for (int v = 0; v < s.n; ++v) {
        std::vector<int> ind(stable);
        for (int& x : ind) x *= 2;
        ind[v] -= 1;
        ASSERT_EQ(refine_colours(s, ind), refine_colours_reference(s, ind))
            << "individualised v=" << v;
      }
      std::vector<int> wide(static_cast<std::size_t>(s.n));
      for (int& x : wide) x = static_cast<int>(rng.below(3)) * 1000003 - 7;
      ASSERT_EQ(refine_colours(s, wide), refine_colours_reference(s, wide));
    }
  }
}

// ---------------------------------------------------------------------------
// Golden certificate bytes. If these fail, stored certificates changed:
// bump kSegmentVersion (store/cert_store.cpp) so old stores fail with
// kVersionSkew, key the nightly census cache on it, re-pin the serve
// goldens, and only then re-pin these.
// ---------------------------------------------------------------------------

TEST(CanonicalGolden, LiteralCertificates) {
  EXPECT_EQ(canonical_certificate(Graph(0)), "G;n0;c:|r0:");
  EXPECT_EQ(canonical_certificate(path_graph(3)),
            "G;n3;c:0,0,0,|r0:0>2,1>2,2>0,2>1,");
  EXPECT_EQ(canonical_certificate(PortNumbering::identity(path_graph(3))),
            "P;D2;n3;c:0,0,0,|r0:1>2,2>1,|r1:0>2,|r2:2>0,|r3:");
  KripkeModel k(2, 1);
  k.set_prop(1, 1);
  k.add_edge(Modality{1, 2}, 0, 1);
  k.add_edge(Modality{1, 2}, 0, 1);
  k.ensure_relation(Modality{0, 0});
  EXPECT_EQ(canonical_certificate(k),
            "K;P1;M(*,*),(1,2),;v0v1;n2;c:0,1,|r0:|r1:0>1,0>1,");
}

TEST(CanonicalGolden, EveryGraphUpTo6InMaskOrder) {
  // certificate_hash (FNV-1a) of the concatenated certificates.
  EnumerateOptions opts;
  opts.connected_only = false;
  std::string all;
  std::size_t graphs = 0;
  for (int n = 1; n <= 6; ++n) {
    graphs += enumerate_graphs(n, opts, [&](const Graph& g) {
      all += canonical_certificate(g);
      return true;
    });
  }
  EXPECT_EQ(graphs, 1u + 2u + 8u + 64u + 1024u + 32768u);
  EXPECT_EQ(all.size(), 2785243u);
  EXPECT_EQ(certificate_hash(all), 0x16b56d03d58a8582ULL);
}

TEST(CanonicalGolden, PortNumberingsAndKripkeViews) {
  std::string ports, views;
  std::vector<PortNumbering> numberings;
  for (const Graph& g : {path_graph(4), cycle_graph(5), star_graph(3),
                         complete_graph(4), petersen_graph(), hypercube(3)}) {
    numberings.push_back(PortNumbering::identity(g));
  }
  Rng rng(2012);
  for (int c = 0; c < 8; ++c) {
    const Graph g = random_connected_graph(3 + c % 5, 3, c % 3, rng);
    numberings.push_back(PortNumbering::random(g, rng));
    numberings.push_back(PortNumbering::random_consistent(g, rng));
  }
  for (const PortNumbering& p : numberings) {
    ports += canonical_certificate(p);
    for (const Variant v : kVariants) {
      views += canonical_certificate(kripke_from_graph(p, v));
    }
  }
  Rng mrng(99);
  for (int c = 0; c < 20; ++c) {
    views += canonical_certificate(random_multigraph_model(mrng));
  }
  EXPECT_EQ(certificate_hash(ports), 0x5fce31af46b9f721ULL);
  EXPECT_EQ(certificate_hash(views), 0x4b73cca6a0b8c6b1ULL);
}

// ---------------------------------------------------------------------------
// Search bounds on symmetric inputs
// ---------------------------------------------------------------------------

/// Leaves visited by one canonical_form call, from the work counter.
template <class F>
std::uint64_t leaves_of(F&& canonicalise) {
  const auto before = obs::registry().snapshot(obs::CounterKind::kWork);
  canonicalise();
  const auto after = obs::registry().snapshot(obs::CounterKind::kWork);
  const auto it = before.find("canonical.leaves");
  return after.at("canonical.leaves") - (it == before.end() ? 0 : it->second);
}

TEST(CanonicalSearchBounds, EdgelessAndCompleteGraphsFindAtMostNMinus1Generators) {
  // With backjumping, each level of the tree contributes at most one
  // generator, where the reference keeps all C(n,2) transpositions.
  for (const int n : {8, 32, 128}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Graph edgeless(n);
    const CanonicalForm cf = canonical_form(edgeless);
    EXPECT_FALSE(cf.automorphisms.empty());
    EXPECT_LE(cf.automorphisms.size(), static_cast<std::size_t>(n - 1));
    const RelationalStructure s = structure_of(edgeless);
    for (const std::vector<int>& a : cf.automorphisms) {
      ASSERT_TRUE(is_structure_automorphism(s, a));
    }
  }
  for (const int n : {8, 32, 48}) {
    SCOPED_TRACE("K_" + std::to_string(n));
    const CanonicalForm cf = canonical_form(complete_graph(n));
    EXPECT_FALSE(cf.automorphisms.empty());
    EXPECT_LE(cf.automorphisms.size(), static_cast<std::size_t>(n - 1));
  }
}

TEST(CanonicalSearchBounds, SymmetricInputsVisitAtMostNLeaves) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  for (const int n : {8, 32, 128}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    EXPECT_LE(leaves_of([&] { (void)canonical_form(Graph(n)); }),
              static_cast<std::uint64_t>(n));
  }
  for (const int n : {8, 32, 48}) {
    SCOPED_TRACE("K_" + std::to_string(n));
    EXPECT_LE(leaves_of([&] { (void)canonical_form(complete_graph(n)); }),
              static_cast<std::uint64_t>(n));
  }
  // An edgeless 128-state model with a registered relation and one
  // proposition that holds nowhere: one valuation profile, no edges.
  KripkeModel k(128, 1);
  k.ensure_relation(Modality{1, 1});
  CanonicalForm cf;
  EXPECT_LE(leaves_of([&] { cf = canonical_form(k); }), 128u);
  EXPECT_LE(cf.automorphisms.size(), 127u);
#endif
}

}  // namespace
}  // namespace wm
