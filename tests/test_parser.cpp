#include "logic/parser.hpp"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "logic/kripke.hpp"
#include "logic/model_checker.hpp"
#include "logic/random_formula.hpp"
#include "util/rng.hpp"

namespace wm {
namespace {

TEST(Parser, Atoms) {
  EXPECT_EQ(parse_formula("T"), Formula::tru());
  EXPECT_EQ(parse_formula("F"), Formula::fls());
  EXPECT_EQ(parse_formula("q7"), Formula::prop(7));
}

TEST(Parser, Connectives) {
  EXPECT_EQ(parse_formula("~q1"), Formula::negate(Formula::prop(1)));
  EXPECT_EQ(parse_formula("(q1 & q2)"),
            Formula::conj(Formula::prop(1), Formula::prop(2)));
  EXPECT_EQ(parse_formula("q1 | q2 & q3"),
            Formula::disj(Formula::prop(1),
                          Formula::conj(Formula::prop(2), Formula::prop(3))));
}

TEST(Parser, Modalities) {
  EXPECT_EQ(parse_formula("<1,2> q1"),
            Formula::diamond({1, 2}, Formula::prop(1)));
  EXPECT_EQ(parse_formula("<*,2>>=3 q1"),
            Formula::diamond({0, 2}, Formula::prop(1), 3));
  EXPECT_EQ(parse_formula("<*,*> T"), Formula::diamond({0, 0}, Formula::tru()));
  EXPECT_EQ(parse_formula("[3,*] q2"), Formula::box({3, 0}, Formula::prop(2)));
}

TEST(Parser, WhitespaceInsensitive) {
  EXPECT_EQ(parse_formula("  ( q1   &~ q2 ) "),
            Formula::conj(Formula::prop(1), Formula::negate(Formula::prop(2))));
}

TEST(Parser, Errors) {
  EXPECT_THROW(parse_formula(""), ParseError);
  EXPECT_THROW(parse_formula("q"), ParseError);
  EXPECT_THROW(parse_formula("(q1"), ParseError);
  EXPECT_THROW(parse_formula("q1 q2"), ParseError);
  EXPECT_THROW(parse_formula("<1> q1"), ParseError);
  EXPECT_THROW(parse_formula("&"), ParseError);
}

// `q1 <op> q1 <op> ... q1`: flat text whose tree is left-deep, one level
// per link.
std::string chain_of(int operands, char op) {
  std::string text = "q1";
  text.reserve(3 * static_cast<std::size_t>(operands));
  for (int i = 1; i < operands; ++i) {
    text += op;
    text += "q1";
  }
  return text;
}

// Each of these overflowed the stack, in the parser or in a walk over
// the tree it built, before the height bound existed.
TEST(ParserBound, HostileNestingIsRefused) {
  EXPECT_THROW(parse_formula(std::string(200000, '~') + "T"), ParseError);
  EXPECT_THROW(parse_formula(chain_of(66000, '&')), ParseError);
  EXPECT_THROW(parse_formula(chain_of(66000, '|')), ParseError);
  EXPECT_THROW(parse_formula(std::string(100000, '(') + "T"), ParseError);
}

TEST(ParserBound, BoundIsExact) {
  const std::string negations = std::string(kMaxFormulaHeight, '~') + "q1";
  const std::string parens = std::string(kMaxFormulaHeight, '(') + "q1" +
                             std::string(kMaxFormulaHeight, ')');
  EXPECT_NO_THROW(parse_formula(negations));
  EXPECT_NO_THROW(parse_formula(chain_of(kMaxFormulaHeight + 1, '&')));
  EXPECT_NO_THROW(parse_formula(parens));
  EXPECT_THROW(parse_formula("~" + negations), ParseError);
  EXPECT_THROW(parse_formula(chain_of(kMaxFormulaHeight + 2, '|')), ParseError);
  EXPECT_THROW(parse_formula("(" + parens + ")"), ParseError);
  // A printed formula measures at most its height + 1: to_string
  // parenthesises each link.
  const Formula below = parse_formula(chain_of(kMaxFormulaHeight, '&'));
  EXPECT_EQ(parse_formula(below.to_string()), below);
}

// Formulas exactly at the bound go through every recursive walk a
// served modelcheck makes, and through destruction, on the test
// thread's stack.
TEST(ParserBound, FormulasAtTheBoundSurviveEveryWalk) {
  KripkeModel k(2, 1);
  k.add_edge({0, 0}, 0, 1);
  k.set_prop(1, 0);
  const std::string texts[] = {
      std::string(kMaxFormulaHeight, '~') + "q1",  // an even count: q1
      chain_of(kMaxFormulaHeight + 1, '&'),
      chain_of(kMaxFormulaHeight + 1, '|'),
      std::string(kMaxFormulaHeight / 2, '~') +
          std::string(kMaxFormulaHeight / 2, '(') + "q1" +
          std::string(kMaxFormulaHeight / 2, ')'),
  };
  for (const std::string& text : texts) {
    const Formula f = parse_formula(text);
    EXPECT_EQ(f.max_prop(), 1);
    EXPECT_FALSE(f.to_string().empty());
    const Bitset bits = model_check_bits(k, f);
    EXPECT_TRUE(bits.test(0));
    EXPECT_FALSE(bits.test(1));
  }
}

// gtest prints a parameter that has no PrintTo as a dump of its bytes,
// and CTest names each case by that dump. graded is an int, not a bool,
// so the struct has no padding bytes, whose values would be arbitrary.
struct RoundtripParams {
  Variant variant;
  int graded;
};
static_assert(std::has_unique_object_representations_v<RoundtripParams>);

class ParserRoundtrip : public ::testing::TestWithParam<RoundtripParams> {};

TEST_P(ParserRoundtrip, RandomFormulasSurviveRoundtrip) {
  Rng rng(static_cast<std::uint64_t>(GetParam().graded) * 100 +
          static_cast<std::uint64_t>(GetParam().variant));
  RandomFormulaOptions opts;
  opts.variant = GetParam().variant;
  opts.graded = GetParam().graded;
  opts.max_depth = 4;
  for (int i = 0; i < 200; ++i) {
    const Formula f = random_formula(rng, opts);
    EXPECT_EQ(parse_formula(f.to_string()), f) << f.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ParserRoundtrip,
    ::testing::Values(RoundtripParams{Variant::PlusPlus, false},
                      RoundtripParams{Variant::MinusPlus, true},
                      RoundtripParams{Variant::PlusMinus, false},
                      RoundtripParams{Variant::MinusMinus, true},
                      RoundtripParams{Variant::MinusMinus, false}));

}  // namespace
}  // namespace wm
