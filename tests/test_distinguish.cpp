#include "bisim/distinguish.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "compile/formula_compiler.hpp"
#include "core/classification.hpp"
#include "graph/generators.hpp"
#include "logic/model_checker.hpp"
#include "port/port_numbering.hpp"
#include "runtime/engine.hpp"
#include "support/canon_harness.hpp"
#include "support/diff_harness.hpp"
#include "support/oracles.hpp"

namespace wm {
namespace {

KripkeModel mm(const Graph& g) {
  return kripke_from_graph(PortNumbering::identity(g), Variant::MinusMinus);
}

TEST(Distinguish, SimpleDegreeSplit) {
  const KripkeModel k = mm(star_graph(3));
  const auto f = distinguishing_formula(k, 0, 1);  // centre vs leaf
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->modal_depth(), 0);  // atoms suffice
  const auto truth = model_check(k, *f);
  EXPECT_TRUE(truth[0]);
  EXPECT_FALSE(truth[1]);
}

TEST(Distinguish, BisimilarPairsHaveNoFormula) {
  const KripkeModel k = mm(cycle_graph(6));
  EXPECT_FALSE(distinguishing_formula(k, 0, 3).has_value());
  EXPECT_FALSE(distinguishing_formula(k, 0, 3, /*graded=*/true).has_value());
}

TEST(Distinguish, GradedSplitsWhatUngradedCannot) {
  // The Theorem 13 witness: nodes 0 and 6 are bisimilar (no ML formula
  // splits them) but not g-bisimilar (a GML formula does).
  const SeparationWitness w = thm13_witness();
  const KripkeModel k = kripke_from_graph(w.numbering, Variant::MinusMinus);
  EXPECT_FALSE(distinguishing_formula(k, 0, 6, /*graded=*/false).has_value());
  const auto f = distinguishing_formula(k, 0, 6, /*graded=*/true);
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->is_graded());
  const auto truth = model_check(k, *f);
  EXPECT_TRUE(truth[0]);
  EXPECT_FALSE(truth[6]);
}

TEST(Distinguish, CharacteristicFormulaIsExact) {
  Rng rng(3);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = random_connected_graph(7, 3, 3, rng);
    const PortNumbering p = PortNumbering::random(g, rng);
    for (const Variant variant : {Variant::MinusMinus, Variant::PlusPlus}) {
      const KripkeModel k = kripke_from_graph(p, variant);
      for (const bool graded : {false, true}) {
        const Partition part = graded ? coarsest_graded_bisimulation(k)
                                      : coarsest_bisimulation(k);
        for (int s = 0; s < k.num_states(); ++s) {
          const Formula chi = characteristic_formula(k, s, graded);
          const auto truth = model_check(k, chi);
          for (int v = 0; v < k.num_states(); ++v) {
            EXPECT_EQ(truth[v], part.same_block(s, v))
                << "state " << s << " vs " << v << " graded=" << graded;
          }
        }
      }
    }
  }
}

class DistinguishProperty : public ::testing::TestWithParam<int> {};

TEST_P(DistinguishProperty, FormulaExistsIffNotBisimilar) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31);
  const Graph g = random_connected_graph(8, 3, 4, rng);
  const PortNumbering p = PortNumbering::random(g, rng);
  for (const Variant variant :
       {Variant::PlusPlus, Variant::MinusPlus, Variant::MinusMinus}) {
    const KripkeModel k = kripke_from_graph(p, variant);
    for (const bool graded : {false, true}) {
      const Partition part = graded ? coarsest_graded_bisimulation(k)
                                    : coarsest_bisimulation(k);
      for (int u = 0; u < k.num_states(); ++u) {
        for (int v = u + 1; v < k.num_states(); ++v) {
          const auto f = distinguishing_formula(k, u, v, graded);
          EXPECT_EQ(f.has_value(), !part.same_block(u, v));
          if (f) {
            const auto truth = model_check(k, *f);
            EXPECT_TRUE(truth[u]);
            EXPECT_FALSE(truth[v]);
            if (!graded) {
              EXPECT_FALSE(f->is_graded());
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistinguishProperty, ::testing::Values(1, 2, 3));

TEST(Distinguish, FormulaCompilesIntoSplittingAlgorithm) {
  // End-to-end: the distinguishing formula for the Theorem 13 pair,
  // compiled by Theorem 2 into an MB machine, outputs differently at the
  // two nodes — a distributed algorithm that witnesses the separation.
  const SeparationWitness w = thm13_witness();
  const KripkeModel k = kripke_from_graph(w.numbering, Variant::MinusMinus);
  const auto f = distinguishing_formula(k, 0, 6, /*graded=*/true);
  ASSERT_TRUE(f.has_value());
  const auto machine =
      compile_formula(*f, Variant::MinusMinus, w.graph.max_degree());
  const auto r = execute(*machine, w.numbering);
  ASSERT_TRUE(r.stopped);
  EXPECT_EQ(r.final_states[0].as_int(), 1);
  EXPECT_EQ(r.final_states[6].as_int(), 0);
}

TEST(Distinguish, DepthBoundedByRefinementRounds) {
  // On a path, endpoints split from the middle at round 0; second layer
  // at round 1, etc. The distinguishing formula depth tracks that.
  const KripkeModel k = mm(path_graph(7));
  const auto f01 = distinguishing_formula(k, 0, 1);
  ASSERT_TRUE(f01.has_value());
  EXPECT_EQ(f01->modal_depth(), 0);  // degrees differ
  const auto f12 = distinguishing_formula(k, 1, 2);
  ASSERT_TRUE(f12.has_value());
  EXPECT_EQ(f12->modal_depth(), 1);  // "has a degree-1 neighbour"
  const auto f23 = distinguishing_formula(k, 2, 3);
  ASSERT_TRUE(f23.has_value());
  EXPECT_EQ(f23->modal_depth(), 2);
}

// --- Differential: observer-built formulas ≡ the pre-observer builder ----
//
// The three entry points read their rounds off the worklist's observer;
// the reference (tests/support/oracles.hpp) still refines with its own
// signature map. Formulas must be equal (same conjuncts in the same
// order: first members in state order, then modality, then
// previous-round block id), partitions identical, including rounds asked
// for past the fixpoint. WM_SEED=<n> narrows a failure to one seed.

/// Formula's `==`, with each pair of inner nodes compared once. `==`
/// walks DAG-shared formulas as trees: each layer of a characteristic
/// formula repeats the previous one per modality and block, so at depth
/// 6 it runs for minutes. An inner node is identified by its children's
/// storage (&child(0)), which every handle on that node shares.
using NodePairs = std::set<std::pair<const Formula*, const Formula*>>;

bool same_node(const Formula& a, const Formula& b, NodePairs& equal) {
  if (a.hash() != b.hash() || a.kind() != b.kind() ||
      a.num_children() != b.num_children()) {
    return false;
  }
  if (a.num_children() == 0) return a == b;
  const std::pair key{&a.child(0), &b.child(0)};
  if (equal.contains(key)) return true;
  const bool modal = a.kind() == Formula::Kind::Diamond ||
                     a.kind() == Formula::Kind::Box;
  if (modal && !(a.modality() == b.modality())) return false;
  if (a.kind() == Formula::Kind::Diamond && a.grade() != b.grade()) {
    return false;
  }
  for (std::size_t i = 0; i < a.num_children(); ++i) {
    if (!same_node(a.child(i), b.child(i), equal)) return false;
  }
  equal.insert(key);
  return true;
}

bool same_formula(const Formula& a, const Formula& b) {
  NodePairs equal;
  return same_node(a, b, equal);
}

bool same_formula(const std::optional<Formula>& a,
                  const std::optional<Formula>& b) {
  return a.has_value() == b.has_value() && (!a || same_formula(*a, *b));
}

bool same_formulas(const std::vector<Formula>& a,
                   const std::vector<Formula>& b) {
  NodePairs equal;  // shared: the blocks' formulas share their layers
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_node(a[i], b[i], equal)) return false;
  }
  return true;
}

TEST(DistinguishDifferential, SameFormulaIsFormulaEquality) {
  // On formulas small enough for `==` itself, the memoised comparison
  // must agree with it, both ways.
  const KripkeModel k = mm(path_graph(5));
  for (const bool graded : {false, true}) {
    const std::vector<Formula> a = characteristic_formulas(k, 2, graded).chi;
    const std::vector<Formula> b =
        characteristic_layer_reference(k, 2, graded).chi;
    for (std::size_t i = 0; i < a.size(); ++i) {
      for (std::size_t j = 0; j < b.size(); ++j) {
        EXPECT_EQ(same_formula(a[i], b[j]), a[i] == b[j]) << i << "," << j;
      }
      EXPECT_TRUE(same_formula(a[i], b[i]));
    }
  }
}

TEST(DistinguishDifferential, EntryPointsMatchLayerBuilderReference) {
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng mrng(seed + 17);
    for (int trial = 0; trial < 12; ++trial) {
      const KripkeModel k = canontest::random_kripke_model(mrng);
      for (const bool graded : {false, true}) {
        for (const int t : {-1, 0, 1, 2, 3, 6}) {
          const CharacteristicFormulas got =
              characteristic_formulas(k, t, graded);
          const CharacteristicLayer want =
              characteristic_layer_reference(k, t, graded);
          EXPECT_EQ(got.partition.block, want.block)
              << "t=" << t << " graded=" << graded << " WM_SEED=" << seed;
          EXPECT_EQ(got.partition.num_blocks, want.num_blocks);
          EXPECT_TRUE(same_formulas(got.chi, want.chi))
              << "t=" << t << " graded=" << graded << " WM_SEED=" << seed;
        }
        for (int s = 0; s < k.num_states(); ++s) {
          EXPECT_TRUE(
              same_formula(characteristic_formula(k, s, graded),
                           characteristic_formula_reference(k, s, graded)))
              << "state " << s << " graded=" << graded << " WM_SEED=" << seed;
          for (int v = 0; v < k.num_states(); ++v) {
            EXPECT_TRUE(
                same_formula(distinguishing_formula(k, s, v, graded),
                             distinguishing_formula_reference(k, s, v, graded)))
                << s << " vs " << v << " graded=" << graded
                << " WM_SEED=" << seed;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace wm
