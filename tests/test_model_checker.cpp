#include "logic/model_checker.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bisim/bisimulation.hpp"
#include "graph/generators.hpp"
#include "logic/random_formula.hpp"
#include "obs/counters.hpp"
#include "support/canon_harness.hpp"
#include "support/diff_harness.hpp"
#include "support/oracles.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace wm {
namespace {

KripkeModel path_model() {
  return kripke_from_graph(PortNumbering::identity(path_graph(3)),
                           Variant::MinusMinus);
}

TEST(ModelChecker, Atoms) {
  const KripkeModel k = path_model();
  EXPECT_EQ(model_check(k, Formula::tru()),
            (std::vector<bool>{true, true, true}));
  EXPECT_EQ(model_check(k, Formula::fls()),
            (std::vector<bool>{false, false, false}));
  // q1 = "degree 1": endpoints.
  EXPECT_EQ(model_check(k, Formula::prop(1)),
            (std::vector<bool>{true, false, true}));
}

TEST(ModelChecker, Connectives) {
  const KripkeModel k = path_model();
  const Formula q1 = Formula::prop(1), q2 = Formula::prop(2);
  EXPECT_EQ(model_check(k, Formula::negate(q1)),
            (std::vector<bool>{false, true, false}));
  EXPECT_EQ(model_check(k, Formula::conj(q1, q2)),
            (std::vector<bool>{false, false, false}));
  EXPECT_EQ(model_check(k, Formula::disj(q1, q2)),
            (std::vector<bool>{true, true, true}));
}

TEST(ModelChecker, DiamondAndBox) {
  const KripkeModel k = path_model();
  // <*,*> q2 — "some neighbour has degree 2": true at the endpoints.
  const Formula dq2 = Formula::diamond({0, 0}, Formula::prop(2));
  EXPECT_EQ(model_check(k, dq2), (std::vector<bool>{true, false, true}));
  // [*,*] q1 — "all neighbours have degree 1": true at the middle node.
  const Formula bq1 = Formula::box({0, 0}, Formula::prop(1));
  EXPECT_EQ(model_check(k, bq1), (std::vector<bool>{false, true, false}));
}

TEST(ModelChecker, GradedDiamonds) {
  const KripkeModel k = kripke_from_graph(
      PortNumbering::identity(star_graph(3)), Variant::MinusMinus);
  // Centre has 3 degree-1 neighbours.
  const Formula g2 = Formula::diamond({0, 0}, Formula::prop(1), 2);
  const Formula g3 = Formula::diamond({0, 0}, Formula::prop(1), 3);
  const Formula g4 = Formula::diamond({0, 0}, Formula::prop(1), 4);
  EXPECT_TRUE(model_check_at(k, g2, 0));
  EXPECT_TRUE(model_check_at(k, g3, 0));
  EXPECT_FALSE(model_check_at(k, g4, 0));
  EXPECT_FALSE(model_check_at(k, g2, 1));  // a leaf has one neighbour
}

TEST(ModelChecker, ModalDepthTwo) {
  const KripkeModel k = path_model();
  // <>(<> q2): "a neighbour has a neighbour of degree 2" — middle node's
  // neighbours (endpoints) each see the middle (degree 2): true at 1;
  // endpoints' neighbour is the middle, which sees no degree-2 node...
  const Formula f =
      Formula::diamond({0, 0}, Formula::diamond({0, 0}, Formula::prop(2)));
  EXPECT_EQ(model_check(k, f), (std::vector<bool>{false, true, false}));
}

TEST(ModelChecker, EmptyRelationDiamondIsFalseBoxIsTrue) {
  KripkeModel k(2, 1);
  k.ensure_relation({0, 0});
  EXPECT_FALSE(model_check_at(k, Formula::diamond({0, 0}, Formula::tru()), 0));
  EXPECT_TRUE(model_check_at(k, Formula::box({0, 0}, Formula::fls()), 0));
}

class CheckerAgreement : public ::testing::TestWithParam<Variant> {};

TEST_P(CheckerAgreement, MemoisedMatchesNaive) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 31);
  Rng grng(17);
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = random_connected_graph(8, 3, 3, grng);
    const PortNumbering p = PortNumbering::random(g, grng);
    const KripkeModel k = kripke_from_graph(p, GetParam());
    RandomFormulaOptions opts;
    opts.variant = GetParam();
    opts.delta = g.max_degree();
    opts.num_props = g.max_degree();
    opts.graded = true;
    opts.max_depth = 3;
    const Formula f = random_formula(rng, opts);
    EXPECT_EQ(model_check(k, f), model_check_naive(k, f)) << f.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, CheckerAgreement,
                         ::testing::Values(Variant::PlusPlus, Variant::MinusPlus,
                                           Variant::PlusMinus,
                                           Variant::MinusMinus));

class Fact1Property : public ::testing::TestWithParam<Variant> {};

// Fact 1: bisimilar states satisfy the same (ungraded) formulas;
// g-bisimilar states satisfy the same graded formulas.
TEST_P(Fact1Property, BisimilarStatesAgreeOnFormulas) {
  Rng rng(91);
  Rng grng(92);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = random_connected_graph(9, 3, 4, grng);
    const PortNumbering p = PortNumbering::random(g, grng);
    const KripkeModel k = kripke_from_graph(p, GetParam());
    for (const bool graded : {false, true}) {
      const Partition part = graded ? coarsest_graded_bisimulation(k)
                                    : coarsest_bisimulation(k);
      RandomFormulaOptions opts;
      opts.variant = GetParam();
      opts.delta = g.max_degree();
      opts.num_props = g.max_degree();
      opts.graded = graded;
      opts.max_depth = 4;
      for (int i = 0; i < 10; ++i) {
        const Formula f = random_formula(rng, opts);
        const auto truth = model_check(k, f);
        for (int u = 0; u < k.num_states(); ++u) {
          for (int v = u + 1; v < k.num_states(); ++v) {
            if (part.same_block(u, v)) {
              EXPECT_EQ(truth[u], truth[v])
                  << "Fact 1 violated by " << f.to_string();
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, Fact1Property,
                         ::testing::Values(Variant::PlusPlus, Variant::MinusPlus,
                                           Variant::PlusMinus,
                                           Variant::MinusMinus));

// --- Differential: packed path ≡ scalar reference -------------------------
//
// The bitset evaluator promises the EXACT denotation of the naive scalar
// recursion, bit for bit, on arbitrary seeded models and formulas — the
// same contract the canonical and parallel subsystems pin with their
// harnesses. WM_SEED=<n> narrows a reported failure to one seed.

RandomFormulaOptions formula_options_for(const KripkeModel& k, bool graded) {
  RandomFormulaOptions opts;
  opts.num_props = k.num_props();
  opts.delta = k.num_props();
  opts.graded = graded;
  opts.max_depth = 3;
  return opts;
}

class BitsetDifferential : public ::testing::TestWithParam<bool> {};

TEST_P(BitsetDifferential, PackedMatchesScalarReference) {
  const bool graded = GetParam();
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng mrng(seed);
    Rng frng(seed + 1000);
    for (int trial = 0; trial < 100; ++trial) {
      const KripkeModel k = canontest::random_kripke_model(mrng);
      Rng rng(frng.below(~0ull));
      const Formula f = random_formula(rng, formula_options_for(k, graded));
      const std::vector<bool> oracle = model_check_naive(k, f);
      const Bitset bits = model_check_bits(k, f);
      EXPECT_EQ(bits.to_bools(), oracle)
          << f.to_string() << " — reproduce with WM_SEED=" << seed;
      EXPECT_EQ(model_check(k, f), oracle)
          << f.to_string() << " — reproduce with WM_SEED=" << seed;
      for (int v = 0; v < k.num_states(); ++v) {
        EXPECT_EQ(model_check_at(k, f, v), oracle[v]);
      }
    }
  }
}

// Metamorphic: relabelling the states permutes the denotation and
// nothing else — ||phi||_{perm(K)}[perm[v]] == ||phi||_K[v].
TEST_P(BitsetDifferential, DenotationCommutesWithRelabelling) {
  const bool graded = GetParam();
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng mrng(seed + 7);
    Rng frng(seed + 1007);
    for (int trial = 0; trial < 40; ++trial) {
      const KripkeModel k = canontest::random_kripke_model(mrng);
      const std::vector<int> perm =
          canontest::random_permutation(k.num_states(), mrng);
      const KripkeModel m = canontest::relabelled_model(k, perm);
      Rng rng(frng.below(~0ull));
      const Formula f = random_formula(rng, formula_options_for(k, graded));
      const Bitset on_k = model_check_bits(k, f);
      const Bitset on_m = model_check_bits(m, f);
      for (int v = 0; v < k.num_states(); ++v) {
        EXPECT_EQ(on_m.test(static_cast<std::size_t>(perm[v])),
                  on_k.test(static_cast<std::size_t>(v)))
            << f.to_string() << " at state " << v
            << " — reproduce with WM_SEED=" << seed;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Logics, BitsetDifferential, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "Graded" : "Ungraded";
                         });

// Regression for the memo copy-on-eval fix: the memoised call structure
// (and with it `modelcheck.evals` / `modelcheck.memo_hits`) is a pure
// function of the batch, identical whether the checks run on a 1- or
// 8-worker pool. The formula reuses a subterm (f ∧ f) so memo hits are
// actually exercised.
TEST(ModelCheckerObs, MemoCountersInvariantAcrossThreadCounts) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  std::vector<KripkeModel> models;
  Rng mrng(2012);
  for (int i = 0; i < 8; ++i) {
    models.push_back(canontest::random_kripke_model(mrng));
  }
  Rng frng(13);
  RandomFormulaOptions opts = formula_options_for(models[0], /*graded=*/true);
  const Formula sub = random_formula(frng, opts);
  const Formula f = Formula::conj(sub, sub);  // shared subterm => memo hits

  auto run_batch = [&](int threads) {
    const auto before = obs::registry().snapshot(obs::CounterKind::kWork);
    ThreadPool pool(threads);
    pool.parallel_for(0, models.size(), [&](std::uint64_t i) {
      (void)model_check_bits(models[i], f);
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
  ASSERT_TRUE(serial.contains("modelcheck.evals"));
  ASSERT_TRUE(serial.contains("modelcheck.memo_hits"));
  EXPECT_GT(serial.at("modelcheck.memo_hits"), 0u);
  const auto parallel = run_batch(8);
  EXPECT_EQ(serial, parallel);
#endif
}

}  // namespace
}  // namespace wm
