#include "core/synthesis.hpp"

#include <stdexcept>

#include "bisim/distinguish.hpp"
#include "compile/formula_compiler.hpp"
#include "logic/simplify.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "runtime/combinators.hpp"

namespace wm {

namespace {

int common_delta(const std::vector<PortNumbering>& scope, int requested) {
  if (requested >= 0) return requested;
  int delta = 0;
  for (const PortNumbering& p : scope) {
    delta = std::max(delta, p.graph().max_degree());
  }
  return delta;
}

}  // namespace

std::optional<SynthesisResult> synthesise_solution(
    const Problem& problem, const std::vector<PortNumbering>& scope,
    ProblemClass c, const DecisionOptions& opts) {
  WM_TRACE_SCOPE("synthesis");
  WM_TIME_SCOPE("synthesis.solution");
  WM_COUNT(synthesis.calls);
  if (problem.output_alphabet() != std::vector<int>{0, 1}) {
    throw std::invalid_argument(
        "synthesise_solution: binary-output problems only");
  }
  const Decision decision = decide_solvable(problem, scope, c, opts);
  if (!decision.solvable) return std::nullopt;

  const Variant variant = kripke_variant_for(c);
  const bool graded = graded_logic_for(c);
  const int delta = common_delta(scope, opts.delta);

  const KripkeModel joint = joint_model(scope, variant, delta, opts.pool);
  const Partition part = graded
                             ? coarsest_graded_bisimulation(joint, opts.rounds)
                             : coarsest_bisimulation(joint, opts.rounds);
  const auto chi = characteristic_formulas(joint, opts.rounds, graded);

  // One characteristic formula per 1-coloured block (first member found).
  // (The heavy scan — decide_solvable's colouring search — publishes its
  // own "decision.scan" progress; this covers the extraction pass.)
  obs::ProgressTask progress("synthesis.blocks",
                             static_cast<std::uint64_t>(joint.num_states()));
  FormulaVec ones;
  std::vector<bool> taken(static_cast<std::size_t>(part.num_blocks), false);
  for (int v = 0; v < joint.num_states(); ++v) {
    progress.tick();
    const int b = part.block[v];
    if (decision.block_output[b] == 1 && !taken[b]) {
      taken[b] = true;
      ones.push_back(chi[v]);
    }
  }
  SynthesisResult result;
  result.formula = simplify(Formula::disj_all(std::move(ones)));
  result.blocks = decision.blocks;
  WM_COUNT_ADD(synthesis.blocks, decision.blocks);
  result.delta = delta;
  result.machine = compile_formula(result.formula, variant, delta,
                                   natural_class_for(variant, graded));
  return result;
}

std::optional<MultiSynthesisResult> synthesise_multivalued(
    const Problem& problem, const std::vector<PortNumbering>& scope,
    ProblemClass c, const DecisionOptions& opts) {
  WM_TRACE_SCOPE("synthesis.multivalued");
  WM_TIME_SCOPE("synthesis.multivalued");
  WM_COUNT(synthesis.calls);
  const Decision decision = decide_solvable(problem, scope, c, opts);
  if (!decision.solvable) return std::nullopt;

  const Variant variant = kripke_variant_for(c);
  const bool graded = graded_logic_for(c);
  const int delta = common_delta(scope, opts.delta);

  const KripkeModel joint = joint_model(scope, variant, delta, opts.pool);
  const Partition part = graded
                             ? coarsest_graded_bisimulation(joint, opts.rounds)
                             : coarsest_bisimulation(joint, opts.rounds);
  const auto chi = characteristic_formulas(joint, opts.rounds, graded);

  MultiSynthesisResult result;
  result.alphabet = problem.output_alphabet();
  result.blocks = decision.blocks;
  result.delta = delta;
  // One characteristic formula per block, grouped by assigned value.
  obs::ProgressTask progress("synthesis.blocks",
                             static_cast<std::uint64_t>(joint.num_states()));
  std::vector<FormulaVec> per_value(result.alphabet.size());
  std::vector<bool> taken(static_cast<std::size_t>(part.num_blocks), false);
  for (int v = 0; v < joint.num_states(); ++v) {
    progress.tick();
    const int b = part.block[v];
    if (taken[b]) continue;
    taken[b] = true;
    for (std::size_t i = 0; i < result.alphabet.size(); ++i) {
      if (decision.block_output[b] == result.alphabet[i]) {
        per_value[i].push_back(chi[v]);
      }
    }
  }
  std::vector<std::shared_ptr<const StateMachine>> components;
  const AlgebraicClass cls = natural_class_for(variant, graded);
  for (std::size_t i = 0; i < per_value.size(); ++i) {
    result.value_formulas.push_back(
        simplify(Formula::disj_all(std::move(per_value[i]))));
    components.push_back(
        compile_formula(result.value_formulas.back(), variant, delta, cls));
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
