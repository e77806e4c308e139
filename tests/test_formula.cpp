#include "logic/formula.hpp"

#include <gtest/gtest.h>

#include <set>

#include "logic/random_formula.hpp"
#include "support/oracles.hpp"
#include "util/rng.hpp"

namespace wm {
namespace {

TEST(Formula, Atoms) {
  EXPECT_EQ(Formula::tru().kind(), Formula::Kind::True);
  EXPECT_EQ(Formula::fls().kind(), Formula::Kind::False);
  EXPECT_EQ(Formula::prop(3).prop_id(), 3);
  EXPECT_EQ(Formula().kind(), Formula::Kind::True);
}

TEST(Formula, ModalDepth) {
  const Formula q = Formula::prop(1);
  EXPECT_EQ(q.modal_depth(), 0);
  const Formula d1 = Formula::diamond({1, 1}, q);
  EXPECT_EQ(d1.modal_depth(), 1);
  const Formula nested = Formula::conj(Formula::diamond({0, 0}, d1), q);
  EXPECT_EQ(nested.modal_depth(), 2);
  EXPECT_EQ(Formula::negate(nested).modal_depth(), 2);
  EXPECT_EQ(Formula::box({1, 0}, nested).modal_depth(), 3);
}

TEST(Formula, Size) {
  const Formula f = Formula::conj(Formula::prop(1), Formula::prop(2));
  EXPECT_EQ(f.size(), 3u);
}

TEST(Formula, ConjAllDisjAll) {
  EXPECT_EQ(Formula::conj_all({}), Formula::tru());
  EXPECT_EQ(Formula::disj_all({}), Formula::fls());
  const Formula q1 = Formula::prop(1), q2 = Formula::prop(2);
  EXPECT_EQ(Formula::conj_all({q1}), q1);
  EXPECT_EQ(Formula::conj_all({q1, q2}), Formula::conj(q1, q2));
}

TEST(Formula, StructuralEqualityAndHash) {
  const Formula a = Formula::diamond({1, 2}, Formula::prop(1), 3);
  const Formula b = Formula::diamond({1, 2}, Formula::prop(1), 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a, Formula::diamond({1, 2}, Formula::prop(1), 2));
  EXPECT_NE(a, Formula::diamond({2, 1}, Formula::prop(1), 3));
}

TEST(Formula, IsGraded) {
  EXPECT_FALSE(Formula::diamond({0, 0}, Formula::prop(1), 1).is_graded());
  EXPECT_TRUE(Formula::diamond({0, 0}, Formula::prop(1), 2).is_graded());
  EXPECT_TRUE(
      Formula::negate(Formula::diamond({0, 0}, Formula::prop(1), 5)).is_graded());
}

TEST(Formula, SignatureChecks) {
  const Formula pp = Formula::diamond({1, 2}, Formula::prop(1));
  EXPECT_TRUE(pp.in_signature(Variant::PlusPlus, 2));
  EXPECT_FALSE(pp.in_signature(Variant::PlusPlus, 1));  // port 2 > delta
  EXPECT_FALSE(pp.in_signature(Variant::MinusPlus, 3));
  const Formula mp = Formula::diamond({0, 2}, Formula::prop(1));
  EXPECT_TRUE(mp.in_signature(Variant::MinusPlus, 2));
  EXPECT_FALSE(mp.in_signature(Variant::MinusMinus, 2));
  const Formula mm = Formula::diamond({0, 0}, Formula::prop(1));
  EXPECT_TRUE(mm.in_signature(Variant::MinusMinus, 1));
  const Formula pm = Formula::diamond({2, 0}, Formula::prop(1));
  EXPECT_TRUE(pm.in_signature(Variant::PlusMinus, 2));
  // Propositions above delta are out of signature.
  EXPECT_FALSE(Formula::prop(4).in_signature(Variant::MinusMinus, 3));
}

TEST(Formula, MaxPropAndPort) {
  const Formula f =
      Formula::conj(Formula::diamond({2, 3}, Formula::prop(5)), Formula::prop(1));
  EXPECT_EQ(f.max_prop(), 5);
  EXPECT_EQ(f.max_port(), 3);
}

TEST(Formula, AttributeReadsMatchTheTreeWalks) {
  // Random formulas of every variant, graded or not, and conjunctions
  // mixing two variants, against the old recursive walks at deltas
  // below, at and above the ports and propositions in use.
  const Variant variants[] = {Variant::PlusPlus, Variant::MinusPlus,
                              Variant::PlusMinus, Variant::MinusMinus};
  Rng rng(2512);
  const auto random_of = [&rng](Variant v, int i) {
    RandomFormulaOptions opts;
    opts.variant = v;
    opts.delta = 1 + i % 3;
    opts.num_props = 1 + i % 4;
    opts.max_depth = i % 4;
    opts.graded = i % 2 == 1;
    return random_formula(rng, opts);
  };
  for (const Variant made : variants) {
    for (int i = 0; i < 200; ++i) {
      Formula f = random_of(made, i);
      if (i % 5 == 4) f = Formula::conj(f, random_of(variants[i % 4], i / 5));
      EXPECT_EQ(f.is_graded(), is_graded_reference(f)) << f;
      EXPECT_EQ(f.max_prop(), max_prop_reference(f)) << f;
      EXPECT_EQ(f.max_port(), max_port_reference(f)) << f;
      for (const Variant v : variants) {
        for (int delta = -2; delta <= 4; ++delta) {
          EXPECT_EQ(f.in_signature(v, delta),
                    in_signature_reference(f, v, delta))
              << f << " variant " << variant_name(v) << " delta " << delta;
        }
      }
    }
  }
  // No modality, no proposition, negative delta.
  EXPECT_TRUE(Formula::tru().in_signature(Variant::PlusPlus, -1));
  EXPECT_FALSE(Formula::prop(1).in_signature(Variant::MinusMinus, -1));
  EXPECT_FALSE(Formula::diamond({0, 0}, Formula::tru())
                   .in_signature(Variant::MinusMinus, -1));
  EXPECT_EQ(Formula::tru().max_port(), 0);
  EXPECT_EQ(Formula::tru().max_prop(), 0);
}

TEST(Formula, AttributeReadsIgnoreSharing) {
  // 65 nodes, 2^64 root-to-leaf paths: a per-path walk never returns.
  Formula f = Formula::diamond({1, 2}, Formula::prop(3), 2);
  for (int i = 0; i < 64; ++i) f = Formula::conj(f, f);
  EXPECT_TRUE(f.is_graded());
  EXPECT_EQ(f.max_prop(), 3);
  EXPECT_EQ(f.max_port(), 2);
  EXPECT_TRUE(f.in_signature(Variant::PlusPlus, 3));
  EXPECT_FALSE(f.in_signature(Variant::PlusPlus, 2));  // q3 > delta
  EXPECT_FALSE(f.in_signature(Variant::MinusPlus, 3));
  EXPECT_EQ(f.modal_depth(), 1);
}

TEST(Formula, Printing) {
  EXPECT_EQ(Formula::tru().to_string(), "T");
  EXPECT_EQ(Formula::prop(2).to_string(), "q2");
  EXPECT_EQ(Formula::negate(Formula::prop(1)).to_string(), "~q1");
  EXPECT_EQ(Formula::conj(Formula::prop(1), Formula::prop(2)).to_string(),
            "(q1 & q2)");
  EXPECT_EQ(Formula::diamond({0, 2}, Formula::prop(1), 3).to_string(),
            "<*,2>>=3 q1");
  EXPECT_EQ(Formula::box({1, 0}, Formula::prop(1)).to_string(), "[1,*] q1");
}

TEST(Formula, SubformulaClosureChildrenFirst) {
  const Formula q1 = Formula::prop(1);
  const Formula d = Formula::diamond({0, 0}, q1);
  const Formula f = Formula::conj(d, Formula::negate(d));  // shared subterm
  const FormulaVec closure = subformula_closure(f);
  // q1, <>q1, ~<>q1, f — shared <>q1 appears once.
  EXPECT_EQ(closure.size(), 4u);
  std::set<std::size_t> positions;
  auto pos = [&](const Formula& g) {
    for (std::size_t i = 0; i < closure.size(); ++i) {
      if (closure[i] == g) return i;
    }
    return closure.size();
  };
  EXPECT_LT(pos(q1), pos(d));
  EXPECT_LT(pos(d), pos(f));
  EXPECT_EQ(pos(f), closure.size() - 1);
}

TEST(Formula, GradeValidation) {
  EXPECT_EQ(Formula::diamond({0, 0}, Formula::tru(), 4).grade(), 4);
}

TEST(FormulaDeathTest, MisusedAccessors) {
  EXPECT_DEATH((void)Formula::tru().prop_id(), "prop_id");
  EXPECT_DEATH((void)Formula::prop(1).modality(), "modality");
  EXPECT_DEATH((void)Formula::box({1, 1}, Formula::tru()).grade(), "grade");
}

}  // namespace
}  // namespace wm
