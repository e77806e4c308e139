// Kripke models and the four canonical constructions K_{a,b}(G, p) from a
// port-numbered graph (Section 4.3, Figure 7).
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "logic/formula.hpp"
#include "port/port_numbering.hpp"
#include "util/bitset.hpp"

namespace wm {

/// A finite multimodal Kripke model with proposition symbols q_1..q_P.
/// Relations are keyed by modality; successor lists are sorted.
class KripkeModel {
 public:
  KripkeModel() = default;
  KripkeModel(int num_states, int num_props);

  int num_states() const { return num_states_; }
  int num_props() const { return num_props_; }

  void add_edge(const Modality& alpha, int from, int to);
  void set_prop(int q, int state, bool value = true);

  bool prop_holds(int q, int state) const {
    return valuation_[q - 1].test(static_cast<std::size_t>(state));
  }
  /// Valuation row ||q_q|| as a packed bitset over the state set — the
  /// model checker's leaf representation (64 states per word op).
  const Bitset& prop_bits(int q) const { return valuation_[q - 1]; }
  /// Successors of `state` under alpha (empty if relation absent).
  const std::vector<int>& successors(const Modality& alpha, int state) const;
  /// The whole successor-list array for alpha (nullptr if unregistered) —
  /// lets hot loops hoist the per-call modality lookup out of state scans.
  const std::vector<std::vector<int>>* relation(const Modality& alpha) const;
  /// All modalities with a (possibly empty) registered relation.
  std::vector<Modality> modalities() const;
  bool has_relation(const Modality& alpha) const { return rel_.contains(alpha); }

  /// Registers an (empty) relation for alpha — needed so bisimulation
  /// treats "no successors" as information even when no edge exists.
  void ensure_relation(const Modality& alpha);

  /// Disjoint union of the parts, in order: the states of parts[i] are
  /// shifted by the total state count of parts[0..i), which is written
  /// to (*offsets)[i] when `offsets` is given. Props and modalities are
  /// unioned. One linear pass: each part's successor lists and valuation
  /// rows are copied once. This is the joint model of a scope (Section
  /// 4.3) and the basis of cross-model bisimilarity checks.
  static KripkeModel disjoint_union(std::span<const KripkeModel> parts,
                                    std::vector<int>* offsets = nullptr);
  /// Two-part union: the states of `b` follow those of `a`.
  static KripkeModel disjoint_union(const KripkeModel& a, const KripkeModel& b);

  std::string to_string() const;

 private:
  static KripkeModel union_of(std::span<const KripkeModel* const> parts,
                              std::vector<int>* offsets);

  int num_states_ = 0;
  int num_props_ = 0;
  std::map<Modality, std::vector<std::vector<int>>> rel_;
  std::vector<Bitset> valuation_;  // [q-1], one packed row per prop
};

/// Builds K_{a,b}(G, p): states = V; R_(i,j) = {(u,v) : p((v,j)) = (u,i)}
/// with components unioned away to '*' per the variant; valuation
/// tau(q_i) = {v : deg(v) = i}. Delta defaults to max degree of G.
KripkeModel kripke_from_graph(const PortNumbering& p, Variant variant,
                              int delta = -1);

}  // namespace wm
