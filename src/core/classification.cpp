#include "core/classification.hpp"

#include <stdexcept>

#include "graph/generators.hpp"
#include "problems/catalogue.hpp"

namespace wm {

std::string problem_class_name(ProblemClass c) {
  switch (c) {
    case ProblemClass::SB: return "SB";
    case ProblemClass::MB: return "MB";
    case ProblemClass::VB: return "VB";
    case ProblemClass::SV: return "SV";
    case ProblemClass::MV: return "MV";
    case ProblemClass::VV: return "VV";
    case ProblemClass::VVc: return "VVc";
  }
  return "?";
}

std::vector<ProblemClass> all_problem_classes() {
  return {ProblemClass::SB, ProblemClass::MB, ProblemClass::VB,
          ProblemClass::SV, ProblemClass::MV, ProblemClass::VV,
          ProblemClass::VVc};
}

AlgebraicClass machine_class_for(ProblemClass c) {
  switch (c) {
    case ProblemClass::SB: return AlgebraicClass::set_broadcast();
    case ProblemClass::MB: return AlgebraicClass::multiset_broadcast();
    case ProblemClass::VB: return AlgebraicClass::vector_broadcast();
    case ProblemClass::SV: return AlgebraicClass::set();
    case ProblemClass::MV: return AlgebraicClass::multiset();
    case ProblemClass::VV:
    case ProblemClass::VVc: return AlgebraicClass::vector();
  }
  return AlgebraicClass::vector();
}

Variant kripke_variant_for(ProblemClass c) {
  switch (c) {
    case ProblemClass::SB:
    case ProblemClass::MB: return Variant::MinusMinus;
    case ProblemClass::VB: return Variant::PlusMinus;
    case ProblemClass::SV:
    case ProblemClass::MV: return Variant::MinusPlus;
    case ProblemClass::VV:
    case ProblemClass::VVc: return Variant::PlusPlus;
  }
  return Variant::PlusPlus;
}

bool graded_logic_for(ProblemClass c) {
  return c == ProblemClass::MB || c == ProblemClass::MV;
}

std::string logic_name_for(ProblemClass c) {
  switch (c) {
    case ProblemClass::SB: return "ML";
    case ProblemClass::MB: return "GML";
    case ProblemClass::VB: return "MML";
    case ProblemClass::SV: return "MML";
    case ProblemClass::MV: return "GMML";
    case ProblemClass::VV:
    case ProblemClass::VVc: return "MML";
  }
  return "?";
}

int linear_order_level(ProblemClass c) {
  switch (c) {
    case ProblemClass::SB: return 0;
    case ProblemClass::MB:
    case ProblemClass::VB: return 1;
    case ProblemClass::SV:
    case ProblemClass::MV:
    case ProblemClass::VV: return 2;
    case ProblemClass::VVc: return 3;
  }
  return -1;
}

SeparationCheck check_separation(const SeparationWitness& w) {
  SeparationCheck result;
  const Variant variant = kripke_variant_for(w.excluded_from);
  const KripkeModel k = kripke_from_graph(w.numbering, variant);
  // Corollary 3 uses plain (ungraded) bisimulation: if X cannot be split
  // by any MML formula on this view, no algorithm of the class can split
  // it either (Theorem 2 + Fact 1).
  const Partition p = coarsest_bisimulation(k);
  result.num_blocks = p.num_blocks;
  result.partition_is_bisim = verify_bisimulation_partition(k, p);
  result.x_bisimilar = true;
  for (std::size_t i = 1; i < w.x.size(); ++i) {
    if (!p.same_block(w.x[0], w.x[i])) result.x_bisimilar = false;
  }
  result.solutions_split_x = every_solution_splits(*w.problem, w.graph, w.x);
  return result;
}

SeparationWitness thm11_witness(int k) {
  if (k < 2) throw std::invalid_argument("thm11_witness: k >= 2 required");
  SeparationWitness w;
  w.name = "Theorem 11: leaf-in-star on the " + std::to_string(k) + "-star";
  w.problem = leaf_in_star_problem();
  w.graph = star_graph(k);
  w.numbering = PortNumbering::identity(w.graph);
  for (int leaf = 1; leaf <= k; ++leaf) w.x.push_back(leaf);
  w.solvable_in = ProblemClass::SV;
  w.excluded_from = ProblemClass::VB;
  return w;
}

SeparationWitness thm13_witness() {
  // Component A: degree-3 nodes 0..3 on a 4-cycle, each with one
  // degree-2 neighbour (4 and 5). A degree-3 node sees neighbour degrees
  // (3, 3, 2): two odd -> output 0.
  // Component B: K4 minus an edge — degree-3 nodes 6, 7; degree-2 nodes
  // 8, 9. A degree-3 node sees (3, 2, 2): one odd -> output 1.
  // In K_{-,-} both kinds of degree-3 node have proposition q3 and
  // successor *set* {degree-3 class, degree-2 class}; the degree-2 nodes
  // have q2 and successor set {degree-3 class} — a two-block bisimulation
  // across the union, yet the unique valid solution splits X = {0, 6}.
  Graph g(10);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  g.add_edge(0, 4);
  g.add_edge(1, 4);
  g.add_edge(2, 5);
  g.add_edge(3, 5);
  g.add_edge(6, 7);
  g.add_edge(6, 8);
  g.add_edge(6, 9);
  g.add_edge(7, 8);
  g.add_edge(7, 9);
  SeparationWitness w;
  w.name = "Theorem 13: odd-odd-neighbours on a biregular witness pair";
  w.problem = odd_odd_problem();
  w.graph = g;
  w.numbering = PortNumbering::identity(g);
  w.x = {0, 6};
  w.solvable_in = ProblemClass::MB;
  w.excluded_from = ProblemClass::SB;
  return w;
}

SeparationWitness mis_cycle_witness(int even_n) {
  if (even_n < 4 || even_n % 2 != 0) {
    throw std::invalid_argument("mis_cycle_witness: need even n >= 4");
  }
  const Graph g = cycle_graph(even_n);
  // Proper 2-edge-colouring of the even cycle: edge {i, i+1} gets colour
  // i % 2 + 1, the wrap edge {n-1, 0} gets colour 2. Using the colour as
  // the port at BOTH endpoints gives a consistent, perfectly symmetric
  // numbering.
  auto colour = [even_n](NodeId a, NodeId b) {
    const NodeId lo = std::min(a, b), hi = std::max(a, b);
    if (lo == 0 && hi == even_n - 1) return 2;
    return static_cast<int>(lo % 2) + 1;
  };
  std::vector<std::vector<int>> perm(static_cast<std::size_t>(even_n));
  for (NodeId v = 0; v < even_n; ++v) {
    for (NodeId u : g.neighbours(v)) perm[v].push_back(colour(v, u));
  }
  auto copy = perm;
  SeparationWitness w;
  w.name = "Section 3.1: maximal independent set on the symmetric " +
           std::to_string(even_n) + "-cycle (consistent numbering)";
  w.problem = maximal_independent_set_problem();
  w.graph = g;
  w.numbering = PortNumbering::from_permutations(g, perm, copy);
  for (NodeId v = 0; v < even_n; ++v) w.x.push_back(v);
  w.solvable_in = ProblemClass::VVc;  // placeholder — see header comment
  w.excluded_from = ProblemClass::VVc;
  return w;
}

SeparationWitness thm17_witness(int k) {
  SeparationWitness w;
  w.name = "Theorem 17: symmetry breaking on the " + std::to_string(k) +
           "-regular class-G graph";
  w.problem = symmetry_break_problem();
  w.graph = class_g_graph(k);
  // Lemma 15: the symmetric (necessarily inconsistent, by Lemma 16) port
  // numbering from the 1-factorised double cover.
  w.numbering = PortNumbering::symmetric_regular(w.graph);
  for (int v = 0; v < w.graph.num_nodes(); ++v) w.x.push_back(v);
  w.solvable_in = ProblemClass::VVc;
  w.excluded_from = ProblemClass::VV;
  return w;
}

}  // namespace wm
