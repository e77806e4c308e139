#include "core/synthesis.hpp"

#include <stdexcept>

#include "bisim/distinguish.hpp"
#include "compile/formula_compiler.hpp"
#include "logic/simplify.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "runtime/combinators.hpp"

namespace wm {

namespace {

/// What both entry points share: one joint model, one refinement (the
/// characteristic formulas' own), decide_solvable's colouring search on
/// its partition, and per output value the formulas of the blocks
/// coloured with it, in block order.
struct BlockSolution {
  Variant variant;
  bool graded;
  int delta;
  int blocks;
  std::vector<FormulaVec> formulas;  // parallel to the output alphabet
};

std::optional<BlockSolution> solve_blocks(
    const Problem& problem, const std::vector<PortNumbering>& scope,
    ProblemClass c, const DecisionOptions& opts) {
  BlockSolution s{kripke_variant_for(c), graded_logic_for(c),
                  scope_delta(scope, opts.delta), 0, {}};
  std::vector<int> offsets;
  const KripkeModel joint =
      joint_model(scope, s.variant, s.delta, opts.pool, &offsets);
  CharacteristicFormulas chi =
      characteristic_formulas(joint, opts.rounds, s.graded);
  const Decision decision =
      colour_blocks(problem, scope, offsets, chi.partition, opts);
  if (!decision.solvable) return std::nullopt;
  s.blocks = decision.blocks;
  WM_COUNT_ADD(synthesis.blocks, decision.blocks);
  const std::vector<int> alphabet = problem.output_alphabet();
  s.formulas.resize(alphabet.size());
  for (int b = 0; b < decision.blocks; ++b) {
    for (std::size_t i = 0; i < alphabet.size(); ++i) {
      if (decision.block_output[b] == alphabet[i]) {
        s.formulas[i].push_back(chi.chi[b]);
      }
    }
  }
  return s;
}

}  // namespace

std::optional<SynthesisResult> synthesise_solution(
    const Problem& problem, const std::vector<PortNumbering>& scope,
    ProblemClass c, const DecisionOptions& opts) {
  WM_SCOPE("synthesis.solution");
  WM_COUNT(synthesis.calls);
  if (problem.output_alphabet() != std::vector<int>{0, 1}) {
    throw std::invalid_argument(
        "synthesise_solution: binary-output problems only");
  }
  std::optional<BlockSolution> s = solve_blocks(problem, scope, c, opts);
  if (!s) return std::nullopt;
  SynthesisResult result;
  result.formula = simplify(Formula::disj_all(std::move(s->formulas[1])));
  result.blocks = s->blocks;
  result.delta = s->delta;
  result.machine = compile_formula(result.formula, s->variant, s->delta,
                                   natural_class_for(s->variant, s->graded));
  return result;
}

std::optional<MultiSynthesisResult> synthesise_multivalued(
    const Problem& problem, const std::vector<PortNumbering>& scope,
    ProblemClass c, const DecisionOptions& opts) {
  WM_SCOPE("synthesis.multivalued");
  WM_COUNT(synthesis.calls);
  MultiSynthesisResult result;
  result.alphabet = problem.output_alphabet();
  std::optional<BlockSolution> s = solve_blocks(problem, scope, c, opts);
  if (!s) return std::nullopt;
  result.blocks = s->blocks;
  result.delta = s->delta;
  std::vector<std::shared_ptr<const StateMachine>> components;
  const AlgebraicClass cls = natural_class_for(s->variant, s->graded);
  for (FormulaVec& disjuncts : s->formulas) {
    result.value_formulas.push_back(
        simplify(Formula::disj_all(std::move(disjuncts))));
    components.push_back(compile_formula(result.value_formulas.back(),
                                         s->variant, s->delta, cls));
  }
  const std::vector<int> alphabet = result.alphabet;
  result.machine = product_machine(
      std::move(components), [alphabet](const ValueVec& outs) {
        for (std::size_t i = 0; i < outs.size(); ++i) {
          if (outs[i].is_int() && outs[i].as_int() == 1) {
            return Value::integer(alphabet[i]);
          }
        }
        return Value::integer(alphabet.empty() ? 0 : alphabet[0]);
      });
  return result;
}

}  // namespace wm
