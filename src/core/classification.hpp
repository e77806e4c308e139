// The classification layer: the seven problem classes of the paper, the
// machinery mapping them to machine classes / Kripke variants / logics
// (Table 3), and executable separation certificates (Corollary 3).
//
// The paper's main result (Figure 5b):
//
//   SB ⊊ MB = VB ⊊ SV = MV = VV ⊊ VVc
//
// Equalities are witnessed by the transformers in src/transform
// (Theorems 4, 8, 9); strict separations by the witnesses below
// (Theorems 11, 13, 17), each checked by the three-part recipe of
// Corollary 3: (1) the designated node set X is bisimilar in the right
// Kripke view, (2) the computed partition really is a bisimulation, and
// (3) every valid solution must split X (checked by brute force).
#pragma once

#include <string>
#include <vector>

#include "bisim/bisimulation.hpp"
#include "logic/formula.hpp"
#include "port/port_numbering.hpp"
#include "problems/problem.hpp"
#include "runtime/state_machine.hpp"

namespace wm {

enum class ProblemClass { SB, MB, VB, SV, MV, VV, VVc };

std::string problem_class_name(ProblemClass c);

/// All seven classes in the order of Figure 5b (weakest first).
std::vector<ProblemClass> all_problem_classes();

/// The machine class whose algorithms define the problem class.
AlgebraicClass machine_class_for(ProblemClass c);

/// The Kripke view the class's logic lives on (Theorem 2 / Table 3).
Variant kripke_variant_for(ProblemClass c);

/// Whether the capturing logic is graded (GML / GMML).
bool graded_logic_for(ProblemClass c);

/// The capturing logic's name: ML, GML, MML or GMML (Theorem 2).
std::string logic_name_for(ProblemClass c);

/// Rank in the linear order (1): SB=0 < MB=VB=1 < SV=MV=VV=2 < VVc=3.
int linear_order_level(ProblemClass c);

// --- Separation certificates (Corollary 3) ---------------------------------

struct SeparationWitness {
  std::string name;
  ProblemPtr problem;
  Graph graph;
  PortNumbering numbering;
  std::vector<NodeId> x;        // bisimilar nodes every solution must split
  ProblemClass solvable_in;     // the problem IS in this class (constant time)
  ProblemClass excluded_from;   // ... and NOT in this (general-time) class
};

struct SeparationCheck {
  bool x_bisimilar = false;        // X inside one refinement block
  bool partition_is_bisim = false; // B1-B3 verified for the partition
  bool solutions_split_x = false;  // brute-forced Corollary 3 premise
  int num_blocks = 0;

  bool holds() const {
    return x_bisimilar && partition_is_bisim && solutions_split_x;
  }
};

/// Runs the Corollary 3 recipe on a witness.
SeparationCheck check_separation(const SeparationWitness& w);

/// Theorem 11: leaf-in-star on the k-star (k >= 2), any port numbering —
/// the k leaves are bisimilar in K_{+,-}. Proves VB != SV.
SeparationWitness thm11_witness(int k);

/// Theorem 13: odd-odd-neighbours on the disjoint union of two
/// (3,2)-biregular graphs whose degree-3 nodes are bisimilar in K_{-,-}
/// but need different outputs. Proves SB != MB.
SeparationWitness thm13_witness();

/// Theorem 17: symmetry breaking on a class-G graph (k odd) under the
/// Lemma 15 symmetric (inconsistent) port numbering — all nodes bisimilar
/// in K_{+,+}. Proves VV != VVc. k = 3 gives the Figure 9 graph.
SeparationWitness thm17_witness(int k = 3);

/// Section 3.1's example separating ALL the weak models from stronger
/// ones (unique identifiers / randomisation): maximal independent set on
/// an even cycle with the consistent 2-edge-coloured port numbering.
/// All nodes are bisimilar in K_{+,+} even though the numbering is
/// consistent, so MIS is not even in VVc — while it is solvable in
/// Linial's LOCAL model. The witness's `solvable_in` field is set to VVc
/// only as a placeholder; the problem lies in none of the seven classes.
SeparationWitness mis_cycle_witness(int even_n = 4);

}  // namespace wm
