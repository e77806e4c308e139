// Distinguishing and characteristic formulas.
//
// Bisimulation (Fact 1) says bisimilar states agree on all formulas; the
// converse direction, on finite models, is witnessed constructively:
// whenever u and v are NOT (g-)bisimilar there is a formula true at u
// and false at v. This module extracts such formulas from the partition
// refinement history — turning every separation in this library into a
// concrete modal-logic certificate, and (via the Theorem 2 compiler)
// into a concrete distributed algorithm that tells u from v.
//
// Construction: characteristic formulas per refinement round, read off
// the rounds coarsest_{,graded_}bisimulation's observer reports (one
// refinement per call), each block built from its first member s:
//   chi^0_B  = atomic profile of s,
//   chi^{r+1}_B = chi^r of s's round-r block ∧
//       for each modality alpha and each round-r block C, in id order:
//         ungraded: <alpha> chi^r_C or ~<alpha> chi^r_C, per whether s
//                   has an alpha-successor in C;
//         graded:   "exactly c_{alpha,C}" via <alpha>_{>=c} ∧ ~<alpha>_{>=c+1}.
// Rounds asked for past the fixpoint still add a layer over the
// unchanged partition. Formulas share subterms structurally; their
// printed size can be exponential but their DAG size is polynomial.
#pragma once

#include <optional>
#include <vector>

#include "bisim/bisimulation.hpp"
#include "logic/formula.hpp"

namespace wm {

/// Characteristic formula of `state`'s block at the refinement fixpoint:
/// true exactly on the states (g-)bisimilar to `state`.
Formula characteristic_formula(const KripkeModel& k, int state,
                               bool graded = false);

/// A formula true at u and false at v, or nullopt if u and v are
/// (g-)bisimilar. Modal depth is at most the first refinement round that
/// splits them.
std::optional<Formula> distinguishing_formula(const KripkeModel& k, int u,
                                              int v, bool graded = false);

struct CharacteristicFormulas {
  /// coarsest_{,graded_}bisimulation(k, rounds).
  Partition partition;
  /// chi[b] is true at w iff w lies in block b of `partition`;
  /// md(chi[b]) <= rounds.
  std::vector<Formula> chi;
};

/// Characteristic formulas of every block after exactly `rounds`
/// refinement steps (rounds < 0: the fixpoint). Used by the synthesis
/// pipeline (core/synthesis.hpp).
CharacteristicFormulas characteristic_formulas(const KripkeModel& k,
                                               int rounds, bool graded = false);

}  // namespace wm
