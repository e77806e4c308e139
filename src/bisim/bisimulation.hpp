// Bisimulation and graded bisimulation (Section 4.2).
//
// The coarsest (graded) bisimulation equivalence of a finite Kripke model
// is computed by partition refinement:
//   - initial blocks = atomic valuation profiles (condition B1),
//   - refine by the *set* of successor blocks per modality (B2/B3), or by
//     the *multiset* of successor blocks for graded bisimulation
//     (B2*/B3*; for equivalence relations, per-block successor counts
//     characterise graded bisimilarity).
// The t-round refinement ("bounded bisimilarity") coincides with
// indistinguishability by formulas of modal depth <= t, which is exactly
// the information a t-round distributed algorithm can gather — the bridge
// the paper uses for all separation results (Corollary 3).
#pragma once

#include <cstdint>
#include <vector>

#include "logic/kripke.hpp"

namespace wm {

/// An equivalence relation on the states of a model: block id per state.
struct Partition {
  std::vector<int> block;  // block[v] in [0, num_blocks)
  int num_blocks = 0;
  /// Number of refinement rounds until the fixpoint (or the cap).
  int rounds = 0;

  bool same_block(int u, int v) const { return block[u] == block[v]; }
  /// States grouped by block, each sorted.
  std::vector<std::vector<int>> blocks() const;
};

/// The B1 partition alone: states grouped by atomic valuation profile,
/// block ids in first-seen state order. Shared by refinement, quotient
/// colouring and the distinguishing-formula base layer so all three agree
/// on the initial blocks. Profiles are packed into one uint64 when the
/// model has at most 64 propositions.
Partition valuation_partition(const KripkeModel& k);

/// Coarsest bisimulation equivalence (ungraded: ML/MML semantics).
/// max_rounds < 0 means refine to the fixpoint.
Partition coarsest_bisimulation(const KripkeModel& k, int max_rounds = -1);

/// Coarsest graded bisimulation equivalence (GML/GMML semantics).
Partition coarsest_graded_bisimulation(const KripkeModel& k, int max_rounds = -1);

/// True iff u and v lie in the same block of the coarsest (graded)
/// bisimulation of k.
bool are_bisimilar(const KripkeModel& k, int u, int v, bool graded = false);

/// Cross-model bisimilarity via disjoint union: state u of a ~ state v of b.
bool bisimilar_across(const KripkeModel& a, int u, const KripkeModel& b, int v,
                      bool graded = false);

/// Verifies that a partition is a bisimulation equivalence: B1 (atoms
/// agree within blocks) and, for every pair in a block, successor-block
/// *sets* agree per modality (ungraded) — i.e. the literal back-and-forth
/// conditions B2/B3 for the induced relation.
bool verify_bisimulation_partition(const KripkeModel& k, const Partition& p);

/// Graded variant: successor-block *counts* must agree per modality,
/// which for equivalence relations is equivalent to B2*/B3*.
bool verify_graded_bisimulation_partition(const KripkeModel& k, const Partition& p);

/// Literal check that an arbitrary relation Z (set of state pairs) is a
/// bisimulation between k and itself: conditions B1, B2, B3 verbatim.
bool is_bisimulation_relation(const KripkeModel& k,
                              const std::vector<std::pair<int, int>>& z);

}  // namespace wm
