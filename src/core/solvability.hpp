// Scope-limited solvability and round lower bounds.
//
// For problems with a UNIQUE valid solution per graph (odd-odd
// neighbours, degree parity, isolated-node detection, ...), class
// membership over a finite scope of instances reduces to a refinement
// question: a t-round algorithm of class C exists for the scope iff the
// target outputs are constant on the t-step (graded, for Multiset
// classes) bisimilarity classes of the joint Kripke model of all
// instances — sufficiency is witnessed constructively by compiling the
// classes' characteristic formulas (Theorem 2), necessity by Fact 1.
//
// This gives executable statements like "odd-odd needs exactly 1 round
// in MB but is unsolvable in SB on this scope" — the quantitative core
// of the paper's locality perspective (Section 2, contribution (b)).
#pragma once

#include <optional>
#include <vector>

#include "core/classification.hpp"

namespace wm {

class CancelToken;

struct ScopedInstance {
  PortNumbering numbering;
  std::vector<int> target;  // required output per node (0/1)
};

struct SolvabilityReport {
  /// Smallest t <= max_rounds at which the targets are constant on the
  /// t-step refinement classes; nullopt if none (including at the
  /// refinement fixpoint, i.e. unsolvable on this scope in this class).
  std::optional<int> min_rounds;
  /// Rounds at which the refinement reached its fixpoint.
  int fixpoint_rounds = 0;
  /// Number of blocks at the fixpoint.
  int blocks = 0;
};

/// Analyses solvability of the target outputs in problem class `c` over
/// the scope. All instances must share max degree <= delta (pass the
/// common Delta so degree propositions align). The per-round-bound
/// refinements (the t-step partition is rebuilt from scratch per t) are
/// lowest-witness scans, so min_rounds and fixpoint_rounds are the
/// smallest qualifying t.
///
/// `cancel` (util/cancel.hpp) is polled once per per-round-bound
/// refinement; an expired token aborts with CancelledError.
SolvabilityReport analyse_solvability(const std::vector<ScopedInstance>& scope,
                                      ProblemClass c, int delta,
                                      int max_rounds = 64,
                                      const CancelToken* cancel = nullptr);

/// Builds a scope from graphs: instances get the given numberings and
/// targets from a uniquely-solvable problem's solution (computed by
/// brute force over the output alphabet via the verifier — the problem
/// must have exactly one valid solution per graph; throws otherwise).
/// `cancel` is polled every 1024 outputs.
ScopedInstance instance_for(const Problem& problem, PortNumbering numbering,
                            const CancelToken* cancel = nullptr);

}  // namespace wm
