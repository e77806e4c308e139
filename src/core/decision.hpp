// Deciding scoped solvability for problems with solution SETS.
//
// core/solvability.hpp handles uniquely-solvable problems; this module
// decides the general case on a finite scope: a t-round algorithm of
// class C producing valid outputs on every instance exists iff there is
// an assignment of output values to the t-step refinement blocks of the
// *joint* model whose induced per-instance outputs all pass the
// verifier. (Necessity: Fact 1 — outputs must be constant on blocks and
// consistent ACROSS instances, since an algorithm cannot tell which
// instance it runs in. Sufficiency: compile the blocks' characteristic
// formulas, Theorem 2.)
//
// This turns statements like Theorem 11 — "leaf-in-star is solvable in
// SV(1) but in no number of rounds in VB" — into terminating
// computations on concrete scopes. Exponential in the number of blocks;
// guarded by a budget.
#pragma once

#include <optional>
#include <vector>

#include "core/classification.hpp"
#include "problems/problem.hpp"

namespace wm {

class ThreadPool;

struct DecisionOptions {
  int rounds = -1;              // t; -1 = refinement fixpoint (any time)
  int delta = -1;               // common Delta; -1 = max over scope
  std::size_t max_assignments = 1u << 22;  // colouring budget
  /// Optional task-parallel substrate for the colouring scan (and the
  /// per-instance Kripke builds). nullptr = sequential. The result is
  /// byte-identical at any thread count: the scan uses
  /// parallel_find_first, whose witness is always the lowest assignment
  /// index — exactly the assignment the sequential odometer finds first.
  ThreadPool* pool = nullptr;
};

struct Decision {
  bool solvable = false;
  int blocks = 0;
  /// If solvable: the output value per block (indexed by block id).
  std::vector<int> block_output;
  /// Number of assignments examined.
  std::size_t assignments_tried = 0;
};

class DecisionBudgetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The common degree bound: `requested` if >= 0, else the scope's
/// maximum degree.
int scope_delta(const std::vector<PortNumbering>& scope, int requested);

/// The joint Kripke model of the scope: the disjoint union of the
/// instances' K(G, p) views of `variant` at common degree bound `delta`,
/// in scope order; (*offsets)[i] is instance i's first state. The views
/// are built over `pool` (nullptr = sequential); the state numbering is
/// the same at any thread count.
KripkeModel joint_model(const std::vector<PortNumbering>& scope,
                        Variant variant, int delta, ThreadPool* pool,
                        std::vector<int>* offsets);

/// Decides whether some t-round algorithm of class `c` solves `problem`
/// on every instance of the scope. Throws DecisionBudgetError if
/// |Y|^blocks exceeds the budget.
Decision decide_solvable(const Problem& problem,
                         const std::vector<PortNumbering>& scope,
                         ProblemClass c, const DecisionOptions& opts = {});

/// decide_solvable's colouring search over `part`, the opts.rounds-step
/// refinement of the scope's joint model (`offsets` as joint_model
/// returns them). Throws DecisionBudgetError like decide_solvable.
/// Synthesis refines through its characteristic formulas and decides on
/// that partition.
Decision colour_blocks(const Problem& problem,
                       const std::vector<PortNumbering>& scope,
                       const std::vector<int>& offsets, const Partition& part,
                       const DecisionOptions& opts);

}  // namespace wm
