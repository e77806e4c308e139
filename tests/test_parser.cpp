#include "logic/parser.hpp"

#include <gtest/gtest.h>

#include <type_traits>

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
