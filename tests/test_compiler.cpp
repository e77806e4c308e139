#include "compile/formula_compiler.hpp"

#include <gtest/gtest.h>

#include <ostream>

#include "graph/generators.hpp"
#include "logic/model_checker.hpp"
#include "logic/random_formula.hpp"
#include "runtime/engine.hpp"
#include "util/rng.hpp"

namespace wm {
namespace {

TEST(Desugar, BoxesBecomeNegatedDiamonds) {
  const Formula f = Formula::box({1, 2}, Formula::prop(1));
  const Formula d = desugar_boxes(f);
  EXPECT_EQ(d, Formula::negate(Formula::diamond(
                   {1, 2}, Formula::negate(Formula::prop(1)), 1)));
  // Idempotent on box-free formulas.
  EXPECT_EQ(desugar_boxes(d), d);
}

TEST(Compiler, NaturalClasses) {
  EXPECT_EQ(natural_class_for(Variant::PlusPlus, false), AlgebraicClass::vector());
  EXPECT_EQ(natural_class_for(Variant::MinusPlus, true), AlgebraicClass::multiset());
  EXPECT_EQ(natural_class_for(Variant::MinusPlus, false), AlgebraicClass::set());
  EXPECT_EQ(natural_class_for(Variant::PlusMinus, false),
            AlgebraicClass::vector_broadcast());
  EXPECT_EQ(natural_class_for(Variant::MinusMinus, true),
            AlgebraicClass::multiset_broadcast());
  EXPECT_EQ(natural_class_for(Variant::MinusMinus, false),
            AlgebraicClass::set_broadcast());
}

TEST(Compiler, RejectsMismatches) {
  const Formula f = Formula::diamond({1, 1}, Formula::prop(1));
  // Formula in PlusPlus signature compiled for MinusMinus: bad signature.
  EXPECT_THROW(compile_formula(f, Variant::MinusMinus, 2), std::invalid_argument);
  // Wrong class for variant.
  EXPECT_THROW(
      compile_formula(f, Variant::PlusPlus, 2, AlgebraicClass::set_broadcast()),
      std::invalid_argument);
  // Graded formula with Set receive.
  const Formula graded = Formula::diamond({0, 0}, Formula::prop(1), 2);
  EXPECT_THROW(compile_formula(graded, Variant::MinusMinus, 2,
                               AlgebraicClass::set_broadcast()),
               std::invalid_argument);
}

TEST(Compiler, DegreeFormulaTimeZeroPlusOne) {
  // md(q2) = 0: algorithm stops in exactly 1 round.
  const Formula q2 = Formula::prop(2);
  const auto m = compile_formula(q2, Variant::MinusMinus, 2);
  const Graph g = path_graph(4);
  const auto r = execute(*m, PortNumbering::identity(g));
  EXPECT_TRUE(r.stopped);
  EXPECT_EQ(r.rounds, 1);  // md + 1
  EXPECT_EQ(r.outputs_as_ints(), (std::vector<int>{0, 1, 1, 0}));
}

TEST(Compiler, HandCheckedDiamond) {
  // <*,*> q1: "some neighbour is a leaf".
  const Formula f = Formula::diamond({0, 0}, Formula::prop(1));
  const auto m = compile_formula(f, Variant::MinusMinus, 2);
  const Graph g = path_graph(4);
  const auto r = execute(*m, PortNumbering::identity(g));
  EXPECT_EQ(r.rounds, 2);  // md + 1
  EXPECT_EQ(r.outputs_as_ints(), (std::vector<int>{0, 1, 1, 0}));
}

TEST(Compiler, GradedDiamondCountsNeighbours) {
  // <*,*>_{>=3} q1 at the star centre.
  const Formula f = Formula::diamond({0, 0}, Formula::prop(1), 3);
  const auto m = compile_formula(f, Variant::MinusMinus, 4);
  {
    const auto r = execute(*m, PortNumbering::identity(star_graph(3)));
    EXPECT_EQ(r.outputs_as_ints(), (std::vector<int>{1, 0, 0, 0}));
  }
  {
    const auto r = execute(*m, PortNumbering::identity(star_graph(2)));
    EXPECT_EQ(r.outputs_as_ints(), (std::vector<int>{0, 0, 0}));
  }
}

TEST(Compiler, IsolatedNodesEvaluateDiamondsFalse) {
  const Formula f = Formula::diamond({0, 0}, Formula::tru());
  const auto m = compile_formula(f, Variant::MinusMinus, 2);
  Graph g(3);
  g.add_edge(0, 1);  // node 2 isolated
  const auto r = execute(*m, PortNumbering::identity(g));
  EXPECT_EQ(r.outputs_as_ints(), (std::vector<int>{1, 1, 0}));
}

struct CompilerCase {
  Variant variant;
  bool graded;
  ReceiveMode receive;
  // CTest names each case by its printed parameter. gtest used to print
  // this struct as a dump of its bytes, padding included, and the padding
  // was never initialised, so the names changed from build to build. Each
  // case now prints the name it was recorded under; two of those names
  // keep the stray padding bytes that were recorded with them.
  const char* name;
};

void PrintTo(const CompilerCase& c, std::ostream* os) { *os << c.name; }

class CompilerAgreesWithModelChecker
    : public ::testing::TestWithParam<CompilerCase> {};

// The central Theorem 2 (Parts 1-2) property: the compiled machine's
// output equals the model checker's verdict on K_{a,b}(G, p), for random
// formulas, graphs and port numberings; and the running time is
// md(psi) + 1.
TEST_P(CompilerAgreesWithModelChecker, OnRandomInputs) {
  const CompilerCase c = GetParam();
  Rng frng(static_cast<std::uint64_t>(c.variant) * 10 + c.graded);
  Rng grng(55);
  int interesting = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Graph g = random_connected_graph(7, 3, 2, grng);
    const int delta = g.max_degree();
    const PortNumbering p = PortNumbering::random(g, grng);
    RandomFormulaOptions opts;
    opts.variant = c.variant;
    opts.delta = delta;
    opts.num_props = delta;
    opts.graded = c.graded;
    opts.max_depth = 3;
    const Formula f = random_formula(frng, opts);
    const AlgebraicClass cls{c.receive,
                             (c.variant == Variant::PlusMinus ||
                              c.variant == Variant::MinusMinus)
                                 ? SendMode::Broadcast
                                 : SendMode::Ported};
    const auto machine = compile_formula(f, c.variant, delta, cls);
    const auto r = execute(*machine, p);
    ASSERT_TRUE(r.stopped);
    EXPECT_EQ(r.rounds, desugar_boxes(f).modal_depth() + 1) << f.to_string();
    const KripkeModel k = kripke_from_graph(p, c.variant, delta);
    const auto truth = model_check(k, f);
    for (int v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(r.final_states[v].as_int(), truth[v] ? 1 : 0)
          << "node " << v << " formula " << f.to_string();
    }
    if (f.modal_depth() > 0) ++interesting;
  }
  EXPECT_GT(interesting, 10);  // the sweep actually exercised modalities
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, CompilerAgreesWithModelChecker,
    ::testing::Values(
        CompilerCase{Variant::PlusPlus, false, ReceiveMode::Vector,
                     "12-byte object <00-00 00-00 00-00 00-00 00-00 00-00>"},
        CompilerCase{Variant::MinusPlus, true, ReceiveMode::Multiset,
                     "12-byte object <01-00 00-00 01-00 00-00 01-00 00-00>"},
        CompilerCase{Variant::MinusPlus, false, ReceiveMode::Set,
                     "12-byte object <01-00 00-00 00-00 00-00 02-00 00-00>"},
        CompilerCase{Variant::MinusPlus, false, ReceiveMode::Multiset,
                     "12-byte object <01-00 00-00 00-00 04-00 01-00 00-00>"},
        CompilerCase{Variant::PlusMinus, false, ReceiveMode::Vector,
                     "12-byte object <02-00 00-00 00-00 D0-CA 00-00 00-00>"},
        CompilerCase{Variant::MinusMinus, true, ReceiveMode::Multiset,
                     "12-byte object <03-00 00-00 01-00 00-00 01-00 00-00>"},
        CompilerCase{Variant::MinusMinus, false, ReceiveMode::Set,
                     "12-byte object <03-00 00-00 00-00 00-00 02-00 00-00>"}));

TEST(Compiler, ConsistentNumberingsForVVc) {
  // Theorem 2(a): same machinery restricted to consistent numberings.
  Rng frng(99);
  Rng grng(100);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = random_connected_graph(7, 3, 2, grng);
    const int delta = g.max_degree();
    const PortNumbering p = PortNumbering::random_consistent(g, grng);
    RandomFormulaOptions opts;
    opts.variant = Variant::PlusPlus;
    opts.delta = delta;
    opts.num_props = delta;
    opts.max_depth = 3;
    const Formula f = random_formula(frng, opts);
    const auto machine = compile_formula(f, Variant::PlusPlus, delta);
    const auto r = execute(*machine, p);
    const auto truth = model_check(kripke_from_graph(p, Variant::PlusPlus, delta), f);
    for (int v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(r.final_states[v].as_int(), truth[v] ? 1 : 0);
    }
  }
}

}  // namespace
}  // namespace wm
