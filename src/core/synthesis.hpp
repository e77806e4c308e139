// Algorithm synthesis for anonymous distributed computing.
//
// The full pipeline, every stage a theorem of the paper:
//
//   problem + scope + class
//     -> characteristic formulas  (Section 4.2 machinery: one joint model,
//                                  refined once, a formula per block)
//     -> decide_solvable's search (block colouring of that refinement)
//     -> one modal formula        (disjunction over the 1-coloured blocks,
//                                  simplified)
//     -> compile_formula          (Theorem 2)
//     -> a distributed machine of the class, guaranteed to produce a
//        valid solution on every instance of the scope.
//
// Binary-output problems only (Y = {0, 1}), matching the paper's
// Section 4.3 convention; tuple-output problems can be synthesised
// bitwise.
#pragma once

#include <memory>
#include <optional>

#include "core/decision.hpp"
#include "runtime/state_machine.hpp"

namespace wm {

struct SynthesisResult {
  Formula formula;                              // solves the scope
  std::shared_ptr<const StateMachine> machine;  // compiled (Theorem 2)
  int blocks = 0;
  int delta = 0;
};

/// Synthesises a formula + machine of class `c` solving `problem` on
/// every instance of the scope, or nullopt if none exists at the given
/// round bound. Throws DecisionBudgetError like decide_solvable, and
/// std::invalid_argument if the problem's alphabet is not {0, 1}.
///
/// With opts.pool set, the colouring scan and the per-instance Kripke
/// builds run on the pool; the lowest-witness contract of the scan makes
/// the synthesised formula and machine byte-identical at any thread
/// count (pinned by the differential tests).
std::optional<SynthesisResult> synthesise_solution(
    const Problem& problem, const std::vector<PortNumbering>& scope,
    ProblemClass c, const DecisionOptions& opts = {});

struct MultiSynthesisResult {
  /// value_formulas[i] characterises the nodes that output alphabet[i];
  /// the formulas partition every instance's node set.
  std::vector<Formula> value_formulas;
  std::vector<int> alphabet;
  /// Product of the compiled formula machines (Section 4.3's "tuples of
  /// formulas"), with output = the alphabet value whose formula holds.
  std::shared_ptr<const StateMachine> machine;
  int blocks = 0;
  int delta = 0;
};

/// The multi-valued variant: one formula per alphabet value, realised as
/// a product machine. Works for any finite output alphabet (vertex
/// 3-colouring etc.).
std::optional<MultiSynthesisResult> synthesise_multivalued(
    const Problem& problem, const std::vector<PortNumbering>& scope,
    ProblemClass c, const DecisionOptions& opts = {});

}  // namespace wm
