#include "bisim/bisimulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/classification.hpp"
#include "graph/enumerate.hpp"
#include "graph/generators.hpp"
#include "graph/matching.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "port/port_numbering.hpp"
#include "support/canon_harness.hpp"
#include "support/diff_harness.hpp"
#include "support/oracles.hpp"
#include "util/parallel.hpp"

namespace wm {
namespace {

KripkeModel mm_model(const Graph& g) {
  return kripke_from_graph(PortNumbering::identity(g), Variant::MinusMinus);
}

TEST(Bisim, CycleNodesAllBisimilar) {
  const KripkeModel k = mm_model(cycle_graph(6));
  const Partition p = coarsest_bisimulation(k);
  EXPECT_EQ(p.num_blocks, 1);
  EXPECT_TRUE(verify_bisimulation_partition(k, p));
}

TEST(Bisim, CyclesOfDifferentLengthsBisimilarInSetView) {
  // Anonymity at its starkest: a 3-cycle node and a 1000-cycle node are
  // bisimilar in K_{-,-}.
  const KripkeModel a = mm_model(cycle_graph(3));
  const KripkeModel b = mm_model(cycle_graph(12));
  EXPECT_TRUE(bisimilar_across(a, 0, b, 0));
  EXPECT_TRUE(bisimilar_across(a, 0, b, 0, /*graded=*/true));
}

TEST(Bisim, StarCentreVsLeaf) {
  const KripkeModel k = mm_model(star_graph(3));
  const Partition p = coarsest_bisimulation(k);
  EXPECT_EQ(p.num_blocks, 2);
  EXPECT_FALSE(p.same_block(0, 1));
  EXPECT_TRUE(p.same_block(1, 2));
  EXPECT_TRUE(p.same_block(2, 3));
}

TEST(Bisim, GradedRefinesUngraded) {
  // Two stars joined at the leaves level: build a graph where ungraded
  // and graded partitions differ. Take K_{1,2} ∪ K_{1,3} as one graph:
  // the two centres have degrees 2 and 3 — distinguishable by props.
  // Instead use: path P3 vs star S3 centre — the centre of S3 has three
  // q1-successors, the middle of P3 has two; as *sets* both are {leafish}
  // ... but props differ (q2 vs q3). Use a genuinely multiplicity-only
  // distinction: C4 vs C6 joined? Simplest known: a node with two
  // distinct-looking... We verify on the Theorem 13 witness instead:
  // degree-3 nodes of the two components are bisimilar but NOT g-bisimilar.
  Graph g(10);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  g.add_edge(0, 4);
  g.add_edge(1, 4);
  g.add_edge(2, 5);
  g.add_edge(3, 5);
  g.add_edge(6, 7);
  g.add_edge(6, 8);
  g.add_edge(6, 9);
  g.add_edge(7, 8);
  g.add_edge(7, 9);
  const KripkeModel k = mm_model(g);
  const Partition ungraded = coarsest_bisimulation(k);
  const Partition graded = coarsest_graded_bisimulation(k);
  EXPECT_TRUE(ungraded.same_block(0, 6));
  EXPECT_FALSE(graded.same_block(0, 6));
  EXPECT_GT(graded.num_blocks, ungraded.num_blocks);
  EXPECT_TRUE(verify_bisimulation_partition(k, ungraded));
  EXPECT_TRUE(verify_graded_bisimulation_partition(k, graded));
}

TEST(Bisim, BoundedRefinementMonotone) {
  const KripkeModel k = mm_model(path_graph(7));
  int prev = 1;
  for (int t = 0; t <= 5; ++t) {
    const Partition p = coarsest_bisimulation(k, t);
    EXPECT_GE(p.num_blocks, prev);
    prev = p.num_blocks;
  }
  // Depth-0: only degree props distinguish (2 blocks: endpoints vs rest).
  EXPECT_EQ(coarsest_bisimulation(k, 0).num_blocks, 2);
  // Full refinement on P7: positions fold by symmetry: {0,6},{1,5},{2,4},{3}.
  EXPECT_EQ(coarsest_bisimulation(k).num_blocks, 4);
}

TEST(Bisim, Lemma15SymmetricNumberingMakesAllNodesBisimilar) {
  for (const Graph& g : {cycle_graph(5), petersen_graph(), fig9a_graph(),
                         complete_graph(6)}) {
    const PortNumbering p = PortNumbering::symmetric_regular(g);
    const KripkeModel k = kripke_from_graph(p, Variant::PlusPlus);
    const Partition part = coarsest_bisimulation(k);
    EXPECT_EQ(part.num_blocks, 1) << "graph with n=" << g.num_nodes();
    EXPECT_TRUE(verify_bisimulation_partition(k, part));
    // The full relation V x V is literally a bisimulation (Lemma 15).
    std::vector<std::pair<int, int>> full;
    for (int u = 0; u < g.num_nodes(); ++u) {
      for (int v = 0; v < g.num_nodes(); ++v) full.emplace_back(u, v);
    }
    EXPECT_TRUE(is_bisimulation_relation(k, full));
  }
}

TEST(Bisim, Lemma16ConsistentNumberingsBreakSymmetryOnFig9a) {
  // fig9a has no 1-factor, so by Lemma 16 no consistent port numbering
  // can make all nodes bisimilar in K_{+,+}.
  const Graph g = fig9a_graph();
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const PortNumbering p = PortNumbering::random_consistent(g, rng);
    const KripkeModel k = kripke_from_graph(p, Variant::PlusPlus);
    EXPECT_GT(coarsest_bisimulation(k).num_blocks, 1);
  }
}

TEST(Bisim, Lemma16ConverseOnGraphWithOneFactor) {
  // K4 is 3-regular WITH a 1-factor: a consistent symmetric numbering
  // exists (pair nodes by three disjoint perfect matchings).
  const Graph g = complete_graph(4);
  ASSERT_TRUE(has_one_factor(g));
  // Consistent numbering from the proper 3-edge-colouring of K4:
  // matchings {01,23}, {02,13}, {03,12} -> port = colour index.
  std::vector<std::vector<int>> perm(4);
  auto colour_of = [](int u, int v) {
    const int s = u ^ v;  // 1, 2, 3 for the three matchings
    return s;
  };
  for (int v = 0; v < 4; ++v) {
    for (int u = 0; u < 4; ++u) {
      if (u == v) continue;
      perm[v].push_back(colour_of(u, v));
    }
  }
  auto copy = perm;
  const PortNumbering p = PortNumbering::from_permutations(g, perm, copy);
  ASSERT_TRUE(p.is_consistent());
  const KripkeModel k = kripke_from_graph(p, Variant::PlusPlus);
  EXPECT_EQ(coarsest_bisimulation(k).num_blocks, 1);
}

TEST(Bisim, IsBisimulationRelationRejectsBadRelations) {
  const KripkeModel k = mm_model(star_graph(2));
  // Pairing the centre with a leaf violates B1 (different degree props).
  EXPECT_FALSE(is_bisimulation_relation(k, {{0, 1}}));
  // Empty relation is not a bisimulation by definition.
  EXPECT_FALSE(is_bisimulation_relation(k, {}));
  // Identity is always one.
  EXPECT_TRUE(is_bisimulation_relation(k, {{0, 0}, {1, 1}, {2, 2}}));
  // The two leaves are bisimilar.
  EXPECT_TRUE(is_bisimulation_relation(k, {{1, 2}, {2, 1}, {0, 0}, {1, 1}, {2, 2}}));
}

TEST(Bisim, PartitionBlocksHelper) {
  const KripkeModel k = mm_model(star_graph(3));
  const Partition p = coarsest_bisimulation(k);
  const auto blocks = p.blocks();
  ASSERT_EQ(blocks.size(), 2u);
  std::size_t total = 0;
  for (const auto& b : blocks) total += b.size();
  EXPECT_EQ(total, 4u);
}

// --- Differential: worklist refinement ≡ scalar reference -----------------
//
// The smaller-half worklist path promises the EXACT output of the full
// signature-pass reference — same block ids, same block count and, most
// delicately, the same round count (which carries modal-depth semantics
// via bounded refinement). WM_SEED=<n> narrows a failure to one seed.

class RefinementDifferential : public ::testing::TestWithParam<bool> {};

TEST_P(RefinementDifferential, WorklistMatchesReferenceExactly) {
  const bool graded = GetParam();
  auto fast = [&](const KripkeModel& k, int t) {
    return graded ? coarsest_graded_bisimulation(k, t)
                  : coarsest_bisimulation(k, t);
  };
  auto reference = [&](const KripkeModel& k, int t) {
    return graded ? coarsest_graded_bisimulation_reference(k, t)
                  : coarsest_bisimulation_reference(k, t);
  };
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng mrng(seed + 21);
    for (int trial = 0; trial < 100; ++trial) {
      const KripkeModel k = canontest::random_kripke_model(mrng);
      for (const int t : {-1, 0, 1, 2, 3}) {
        const Partition got = fast(k, t);
        const Partition want = reference(k, t);
        EXPECT_EQ(got.block, want.block)
            << "t=" << t << " — reproduce with WM_SEED=" << seed;
        EXPECT_EQ(got.num_blocks, want.num_blocks) << "t=" << t;
        EXPECT_EQ(got.rounds, want.rounds)
            << "t=" << t << " — reproduce with WM_SEED=" << seed;
      }
    }
  }
}

// Metamorphic: relabelling the states permutes the partition — the block
// *contents* (as a set of state sets, after unpermuting) and the round
// count are invariants of the model's shape.
TEST_P(RefinementDifferential, PartitionCommutesWithRelabelling) {
  const bool graded = GetParam();
  auto fast = [&](const KripkeModel& k) {
    return graded ? coarsest_graded_bisimulation(k)
                  : coarsest_bisimulation(k);
  };
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng mrng(seed + 63);
    for (int trial = 0; trial < 40; ++trial) {
      const KripkeModel k = canontest::random_kripke_model(mrng);
      const std::vector<int> perm =
          canontest::random_permutation(k.num_states(), mrng);
      const KripkeModel m = canontest::relabelled_model(k, perm);
      const Partition on_k = fast(k);
      const Partition on_m = fast(m);
      EXPECT_EQ(on_k.num_blocks, on_m.num_blocks);
      EXPECT_EQ(on_k.rounds, on_m.rounds)
          << "round count changed under relabelling — WM_SEED=" << seed;
      auto as_sets = [](const Partition& p) {
        std::set<std::set<int>> out;
        for (const auto& b : p.blocks()) out.emplace(b.begin(), b.end());
        return out;
      };
      // Unpermute m's blocks back into k's state names.
      Partition unpermuted = on_m;
      for (int v = 0; v < k.num_states(); ++v) {
        unpermuted.block[v] = on_m.block[perm[v]];
      }
      EXPECT_EQ(as_sets(on_k), as_sets(unpermuted))
          << "block contents changed under relabelling — WM_SEED=" << seed;
    }
  }
}

// The observer sees every round the engine runs, numbered exactly like
// the reference's partition at that round bound, on seeded port-numbered
// graphs in all four Kripke variants.
TEST_P(RefinementDifferential, ObserverSeesEveryReferenceRound) {
  const bool graded = GetParam();
  auto observed = [&](const KripkeModel& k, int t,
                      std::vector<Partition>& seen) {
    const RoundObserver observe = [&](const Partition& p) {
      seen.push_back(p);
    };
    return graded ? coarsest_graded_bisimulation(k, t, observe)
                  : coarsest_bisimulation(k, t, observe);
  };
  auto reference = [&](const KripkeModel& k, int t) {
    return graded ? coarsest_graded_bisimulation_reference(k, t)
                  : coarsest_bisimulation_reference(k, t);
  };
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng rng(seed + 41);
    for (int trial = 0; trial < 20; ++trial) {
      const int n = 4 + static_cast<int>(rng.below(6));
      const Graph g = random_connected_graph(n, /*max_deg=*/3,
                                             static_cast<int>(rng.below(4)),
                                             rng);
      const PortNumbering p = PortNumbering::random(g, rng);
      for (const Variant variant : {Variant::PlusPlus, Variant::MinusPlus,
                                    Variant::PlusMinus, Variant::MinusMinus}) {
        const KripkeModel k = kripke_from_graph(p, variant);
        for (const int t : {-1, 0, 1, 2, 3}) {
          std::vector<Partition> seen;
          const Partition got = observed(k, t, seen);
          ASSERT_EQ(seen.size(), static_cast<std::size_t>(got.rounds) + 1)
              << "t=" << t << " — reproduce with WM_SEED=" << seed;
          for (int r = 0; r <= got.rounds; ++r) {
            const Partition want = reference(k, r);
            EXPECT_EQ(seen[r].block, want.block)
                << "round " << r << " t=" << t << " WM_SEED=" << seed;
            EXPECT_EQ(seen[r].num_blocks, want.num_blocks) << "round " << r;
            EXPECT_EQ(seen[r].rounds, r);
          }
          EXPECT_EQ(seen.back().block, got.block);
        }
      }
    }
  }
}

// --- Differential at scale and on edge shapes ------------------------------
//
// Every bound t from -1 (the fixpoint) through one past the reference's
// fixpoint: the engine's partition and round count, and every round its
// observer sees, equal the reference's. The engine's `bisim.split_smaller`
// increment is the number of blocks refinement added to the valuation
// partition.

#ifndef WM_OBS_DISABLED
std::uint64_t split_smaller_total() {
  return obs::registry().snapshot(obs::CounterKind::kWork)
      ["bisim.split_smaller"];
}
#endif

void expect_matches_reference(const KripkeModel& k, bool graded,
                              const std::string& what) {
  const Partition fix = refine_reference_impl(k, graded, -1);
  std::vector<Partition> want;  // want[t]: the reference at bound t
  for (int t = 0; t <= fix.rounds + 1; ++t) {
    want.push_back(refine_reference_impl(k, graded, t));
  }
  for (int t = -1; t <= fix.rounds + 1; ++t) {
    std::vector<Partition> seen;
    const RoundObserver observe = [&](const Partition& p) {
      seen.push_back(p);
    };
#ifndef WM_OBS_DISABLED
    const std::uint64_t splits = split_smaller_total();
#endif
    const Partition got = graded ? coarsest_graded_bisimulation(k, t, observe)
                                 : coarsest_bisimulation(k, t, observe);
    const Partition& ref = t < 0 ? fix : want[t];
    EXPECT_EQ(got.block, ref.block) << what << " t=" << t;
    EXPECT_EQ(got.num_blocks, ref.num_blocks) << what << " t=" << t;
    EXPECT_EQ(got.rounds, ref.rounds) << what << " t=" << t;
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(got.rounds) + 1)
        << what << " t=" << t;
    for (int r = 0; r <= got.rounds; ++r) {
      EXPECT_EQ(seen[r].block, want[r].block) << what << " round " << r;
      EXPECT_EQ(seen[r].num_blocks, want[r].num_blocks) << what;
      EXPECT_EQ(seen[r].rounds, r) << what;
    }
#ifndef WM_OBS_DISABLED
    EXPECT_EQ(split_smaller_total() - splits,
              static_cast<std::uint64_t>(got.num_blocks -
                                         valuation_partition(k).num_blocks))
        << what << " t=" << t;
#endif
  }
}

// The joint model of each class's view over the locality scope: every
// graph on at most 4 nodes with max degree at most 3, under the identity
// and 3 seeded random numberings (bench_locality's and perfbench's
// scope shape).
TEST_P(RefinementDifferential, LocalityScopeJointModels) {
  const bool graded = GetParam();
  EnumerateOptions opts;
  opts.connected_only = false;
  opts.max_degree = 3;
  std::vector<PortNumbering> numberings;
  Rng rng(1);
  for (int n = 1; n <= 4; ++n) {
    enumerate_graphs(n, opts, [&](const Graph& g) {
      numberings.push_back(PortNumbering::identity(g));
      for (int r = 0; r < 3; ++r) {
        numberings.push_back(PortNumbering::random(g, rng));
      }
      return true;
    });
  }
  for (const ProblemClass c : all_problem_classes()) {
    std::vector<KripkeModel> parts;
    for (const PortNumbering& p : numberings) {
      parts.push_back(kripke_from_graph(p, kripke_variant_for(c), 3));
    }
    const KripkeModel joint = KripkeModel::disjoint_union(parts);
    ASSERT_GT(joint.num_states(), 1000);
    expect_matches_reference(joint, graded, problem_class_name(c));
  }
}

// Parallel edges and self-loops, several relations, a few props.
TEST_P(RefinementDifferential, MultigraphModels) {
  const bool graded = GetParam();
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng rng(seed + 7);
    for (int trial = 0; trial < 40; ++trial) {
      const int n = 1 + static_cast<int>(rng.below(60));
      const int relations = 1 + static_cast<int>(rng.below(4));
      const int edges = static_cast<int>(rng.below(3 * n + 1));
      const int props = static_cast<int>(rng.below(3));
      const KripkeModel k =
          canontest::random_multigraph_model(rng, n, relations, edges, props);
      expect_matches_reference(
          k, graded, "multigraph WM_SEED=" + std::to_string(seed) +
                         " trial " + std::to_string(trial));
    }
  }
}

TEST_P(RefinementDifferential, EdgeShapes) {
  const bool graded = GetParam();
  // Δ > 64: more than 64 props, so valuation_partition takes its map
  // path. A star with 66 leaves and a path hanging off one leaf.
  {
    Graph g(70);
    for (int leaf = 1; leaf <= 66; ++leaf) g.add_edge(0, leaf);
    g.add_edge(66, 67);
    g.add_edge(67, 68);
    g.add_edge(68, 69);
    Rng rng(3);
    const PortNumbering p = PortNumbering::random(g, rng);
    for (const Variant variant : {Variant::MinusMinus, Variant::MinusPlus,
                                  Variant::PlusMinus}) {
      const KripkeModel k = kripke_from_graph(p, variant);
      ASSERT_GT(k.num_props(), 64);
      expect_matches_reference(k, graded, "delta 66");
    }
  }
  // No states, with and without registered relations.
  expect_matches_reference(KripkeModel(0, 0), graded, "n=0");
  {
    KripkeModel k(0, 2);
    k.ensure_relation({1, 1});
    expect_matches_reference(k, graded, "n=0 with a relation");
  }
  // Registered relations, all empty.
  {
    KripkeModel k(6, 2);
    for (int a = 1; a <= 3; ++a) k.ensure_relation({a, 1});
    k.set_prop(1, 2);
    k.set_prop(2, 2);
    k.set_prop(2, 4);
    expect_matches_reference(k, graded, "empty relations");
  }
  // One block splitting into 1,200 groups in one round: 2,400 sources
  // without props, source i pointing (i % 3 + 1 times) at leaf i % 1200,
  // whose 11 props spell a distinct nonzero profile.
  {
    constexpr int kLeaves = 1200;
    constexpr int kSources = 2 * kLeaves;
    std::vector<KripkeEdge> edges;
    for (int i = 0; i < kSources; ++i) {
      for (int c = 0; c <= i % 3; ++c) {
        edges.push_back({{1, 1}, kLeaves + i, i % kLeaves});
      }
    }
    KripkeModel k = KripkeModel::from_edges(kLeaves + kSources, 11, edges);
    for (int leaf = 0; leaf < kLeaves; ++leaf) {
      for (int q = 1; q <= 11; ++q) {
        if (((leaf + 1) >> (q - 1)) & 1) k.set_prop(q, leaf);
      }
    }
    const Partition one = graded ? coarsest_graded_bisimulation(k, 1)
                                 : coarsest_bisimulation(k, 1);
    ASSERT_GE(one.num_blocks - valuation_partition(k).num_blocks, 1000);
    expect_matches_reference(k, graded, "1,200-way split");
  }
}

INSTANTIATE_TEST_SUITE_P(Logics, RefinementDifferential, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Graded" : "Ungraded";
                         });

TEST(Bisim, ValuationPartitionMatchesDepthZeroRefinement) {
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng mrng(seed + 99);
    for (int trial = 0; trial < 50; ++trial) {
      const KripkeModel k = canontest::random_kripke_model(mrng);
      const Partition b1 = valuation_partition(k);
      const Partition depth0 = coarsest_bisimulation(k, 0);
      EXPECT_EQ(b1.block, depth0.block) << "WM_SEED=" << seed;
      EXPECT_EQ(b1.num_blocks, depth0.num_blocks);
    }
  }
}

// The gated refinement work counters (`bisim.refine_rounds` above all —
// it carries the paper's round/modal-depth correspondence) must not
// depend on pool size when refinements run from worker threads.
TEST(BisimObs, RefinementWorkInvariantAcrossThreadCounts) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  std::vector<KripkeModel> models;
  Rng mrng(42);
  for (int i = 0; i < 8; ++i) {
    models.push_back(canontest::random_kripke_model(mrng));
  }
  auto run_batch = [&](int threads) {
    const auto before = obs::registry().snapshot(obs::CounterKind::kWork);
    ThreadPool pool(threads);
    pool.parallel_for(0, models.size(), [&](std::uint64_t i) {
      (void)coarsest_bisimulation(models[i]);
      (void)coarsest_graded_bisimulation(models[i]);
    });
    const auto after = obs::registry().snapshot(obs::CounterKind::kWork);
    std::map<std::string, std::uint64_t> delta;
    for (const auto& [name, value] : after) {
      const auto it = before.find(name);
      const std::uint64_t base = it == before.end() ? 0 : it->second;
      if (value != base) delta[name] = value - base;
    }
    return delta;
  };
  const auto serial = run_batch(1);
  ASSERT_TRUE(serial.contains("bisim.refine_rounds"));
  ASSERT_TRUE(serial.contains("bisim.refinements"));
  const auto parallel = run_batch(8);
  EXPECT_EQ(serial, parallel);
#endif
}

// One call is one refinement, observed or not: perfbench's traced
// locality replay and the library's own count both read these.
TEST(BisimObs, EachCallRecordsOneRefineSampleAndOneRefinement) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  Rng mrng(5);
  const KripkeModel k = canontest::random_kripke_model(mrng);
  const obs::Histogram& refine = obs::histograms().histogram("bisim.refine");
  auto refinements = [] {
    return obs::registry().snapshot(obs::CounterKind::kWork)
        ["bisim.refinements"];
  };
  for (const bool graded : {false, true}) {
    for (const bool with_observer : {false, true}) {
      for (const int t : {-1, 0, 2}) {
        const std::uint64_t samples = refine.summary().count;
        const std::uint64_t runs = refinements();
        int rounds_seen = 0;
        const RoundObserver observe = [&](const Partition&) { ++rounds_seen; };
        const RoundObserver none;
        const RoundObserver& o = with_observer ? observe : none;
        const Partition p = graded ? coarsest_graded_bisimulation(k, t, o)
                                   : coarsest_bisimulation(k, t, o);
        EXPECT_EQ(refine.summary().count - samples, 1u)
            << "graded=" << graded << " observer=" << with_observer;
        EXPECT_EQ(refinements() - runs, 1u);
        EXPECT_EQ(rounds_seen, with_observer ? p.rounds + 1 : 0);
      }
    }
  }
  // The two-argument form compiles unchanged and counts the same.
  const std::uint64_t samples = refine.summary().count;
  const std::uint64_t runs = refinements();
  (void)coarsest_bisimulation(k, 1);
  EXPECT_EQ(refine.summary().count - samples, 1u);
  EXPECT_EQ(refinements() - runs, 1u);
#endif
}

TEST(Bisim, VariantsSeeDifferentAmountsOfInformation) {
  // On a star with identity numbering, K_{+,-} keeps the leaves
  // bisimilar, while K_{-,+} (out-ports visible to the *receiver* via
  // R(*,j)) also keeps them bisimilar; but K_{+,+} with distinct centre
  // in-ports still cannot split leaves... Verify the documented Theorem
  // 11 situation: leaves bisimilar in K_{+,-} for every port numbering.
  const Graph g = star_graph(3);
  std::size_t checked = for_each_port_numbering(g, [&](const PortNumbering& p) {
    const KripkeModel k = kripke_from_graph(p, Variant::PlusMinus);
    const Partition part = coarsest_bisimulation(k);
    EXPECT_TRUE(part.same_block(1, 2));
    EXPECT_TRUE(part.same_block(2, 3));
    return true;
  });
  EXPECT_EQ(checked, 36u);
}

}  // namespace
}  // namespace wm
