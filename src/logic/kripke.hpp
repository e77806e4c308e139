// Kripke models and the four canonical constructions K_{a,b}(G, p) from a
// port-numbered graph (Section 4.3, Figure 7).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "logic/formula.hpp"
#include "port/port_numbering.hpp"
#include "util/bitset.hpp"

namespace wm {

/// One labelled edge of KripkeModel::from_edges.
struct KripkeEdge {
  Modality alpha;
  int from = 0;
  int to = 0;
  friend bool operator==(const KripkeEdge&, const KripkeEdge&) = default;
  friend auto operator<=>(const KripkeEdge&, const KripkeEdge&) = default;
};

/// A finite multimodal Kripke model with proposition symbols q_1..q_P.
///
/// The relations live in one flat store, built with the model:
///  - the registered modalities, sorted; a modality's index there is its
///    dense id;
///  - each state's out-edges as (modality id, target) pairs in
///    (modality, target) order, behind n + 1 offsets;
///  - each state's predecessors over all modalities, merged and
///    ascending, behind n + 1 more offsets.
/// A registered relation may have no edges: bisimulation treats "no
/// successors" as information. Reading a model never writes to it, so a
/// built model is safe to read from several threads at once.
class KripkeModel {
 public:
  KripkeModel() = default;
  KripkeModel(int num_states, int num_props);

  /// The edge-list build: the model on `num_states` states whose
  /// relations are those `edges` use plus `relations` (registered even
  /// when empty), with every edge kept, parallel ones included. Each
  /// state's edges are sorted once. Throws std::out_of_range for an
  /// endpoint outside [0, num_states).
  static KripkeModel from_edges(int num_states, int num_props,
                                std::span<const KripkeEdge> edges,
                                std::span<const Modality> relations = {});

  int num_states() const { return num_states_; }
  int num_props() const { return num_props_; }
  std::size_t num_edges() const { return out_to_.size(); }

  /// Adds one edge (a parallel edge is kept), registering alpha. Each
  /// call inserts into the store in O(n + E); build large models with
  /// from_edges. Throws std::out_of_range for a state outside [0, n).
  void add_edge(const Modality& alpha, int from, int to);
  /// Throws std::out_of_range for q outside [1, P] or a state outside
  /// [0, n).
  void set_prop(int q, int state, bool value = true);

  /// Registers an (empty) relation for alpha — needed so bisimulation
  /// treats "no successors" as information even when no edge exists.
  /// Later modalities' dense ids move up by one.
  void ensure_relation(const Modality& alpha);

  bool prop_holds(int q, int state) const {
    return valuation_[q - 1].test(static_cast<std::size_t>(state));
  }
  /// Valuation row ||q_q|| as a packed bitset over the state set — the
  /// model checker's leaf representation (64 states per word op).
  const Bitset& prop_bits(int q) const { return valuation_[q - 1]; }

  /// All modalities with a (possibly empty) registered relation, sorted;
  /// the index of a modality here is its dense id.
  const std::vector<Modality>& modalities() const { return mods_; }
  /// The dense id of alpha, or -1 if alpha has no registered relation.
  int modality_id(const Modality& alpha) const;
  bool has_relation(const Modality& alpha) const {
    return modality_id(alpha) >= 0;
  }

  /// Successors of `state` under alpha, sorted (empty if the relation is
  /// absent).
  std::span<const int> successors(const Modality& alpha, int state) const {
    return successors(modality_id(alpha), state);
  }
  /// Successors of `state` under the modality with dense id `a`, sorted;
  /// empty when a is -1. Hot loops look the id up once.
  std::span<const int> successors(int a, int state) const;

  /// The out-edges of `state` over every modality, position by position:
  /// dense modality ids and targets, in (modality id, target) order.
  std::span<const int> out_modalities(int state) const {
    return slice(out_mod_, out_begin_, state);
  }
  std::span<const int> out_targets(int state) const {
    return slice(out_to_, out_begin_, state);
  }
  /// Every edge as an edge list, by source, then modality, then target —
  /// from_edges(n, P, edges(), modalities()) rebuilds the relations.
  std::vector<KripkeEdge> edges() const;
  /// The source of every edge into `state`, over all modalities,
  /// ascending; a state with two edges into `state` is listed twice.
  std::span<const int> predecessors(int state) const {
    return slice(pred_, pred_begin_, state);
  }

  /// Disjoint union of the parts, in order: the states of parts[i] are
  /// shifted by the total state count of parts[0..i), which is written
  /// to (*offsets)[i] when `offsets` is given. Props and modalities are
  /// unioned. One linear pass: the parts' stores are concatenated, each
  /// target shifted and each modality id remapped. This is the joint
  /// model of a scope (Section 4.3) and the basis of cross-model
  /// bisimilarity checks.
  static KripkeModel disjoint_union(std::span<const KripkeModel> parts,
                                    std::vector<int>* offsets = nullptr);
  /// Two-part union: the states of `b` follow those of `a`.
  static KripkeModel disjoint_union(const KripkeModel& a, const KripkeModel& b);

  std::string to_string() const;

 private:
  friend KripkeModel kripke_from_graph(const PortNumbering& p,
                                       Variant variant, int delta);

  static KripkeModel union_of(std::span<const KripkeModel* const> parts,
                              std::vector<int>* offsets);
  /// Fills the store from out_begin_ and, in each state's range, its
  /// out-edges keyed (modality id << 32 | target) in any order.
  void place_edges(std::vector<std::uint64_t>& keys);
  /// State v's entries of `column`: [begin[v], begin[v + 1]).
  static std::span<const int> slice(const std::vector<int>& column,
                                    const std::vector<int>& begin, int state) {
    const auto v = static_cast<std::size_t>(state);
    return std::span<const int>(column).subspan(
        static_cast<std::size_t>(begin[v]),
        static_cast<std::size_t>(begin[v + 1] - begin[v]));
  }

  int num_states_ = 0;
  int num_props_ = 0;
  std::vector<Modality> mods_;        // sorted; index = dense id
  std::vector<int> out_begin_{0};     // n + 1 offsets into out_mod_/out_to_
  std::vector<int> out_mod_;          // per edge: dense modality id
  std::vector<int> out_to_;           // per edge: target
  std::vector<int> pred_begin_{0};    // n + 1 offsets into pred_
  std::vector<int> pred_;             // per edge, by target: source
  std::vector<Bitset> valuation_;     // [q-1], one packed row per prop
};

/// Builds K_{a,b}(G, p): states = V; R_(i,j) = {(u,v) : p((v,j)) = (u,i)}
/// with components unioned away to '*' per the variant; valuation
/// tau(q_i) = {v : deg(v) = i}. Delta defaults to max degree of G.
KripkeModel kripke_from_graph(const PortNumbering& p, Variant variant,
                              int delta = -1);

}  // namespace wm
