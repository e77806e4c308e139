// Scalar oracles the differential suites pin the production paths
// against. They are test support, not library API: never optimise them.
//
//  - model_check_naive: direct scalar recursion over std::vector<bool>
//    following the truth definition, no memoisation, exactly the
//    pre-bitset model checker. Exponential on DAG-shaped formulas; the
//    packed path (logic/model_checker.hpp) must match it bit for bit.
//  - coarsest_{,graded_}bisimulation_reference: round-synchronous
//    signature refinement, exactly the pre-Hopcroft implementation —
//    every round recomputes every state's signature against the whole
//    previous partition. The worklist path (bisim/bisimulation.hpp) must
//    match it exactly: same block ids, same round count. It stays off
//    the obs counters so reference runs never perturb gated totals.
//  - graded_quotient_model_reference: the pre-row graded quotient, one
//    num_blocks-long count vector per (modality, block) pair. The
//    shipped graded_quotient_model must build the same model. Off the
//    obs counters.
//  - characteristic_layer_reference (+ characteristic_formula_reference,
//    distinguishing_formula_reference): the pre-observer
//    distinguishing-formula engine — its own round-synchronous
//    refinement, grouping states by a std::map over per-state
//    successor-count matrices, one formula layer per round. The shipped
//    entry points (bisim/distinguish.hpp), which read the rounds off the
//    worklist's observer, must build `==` formulas and the same
//    partition. Off the obs counters.
//  - canonical_form_reference / refine_colours_reference: the
//    pre-arena canonical-form engine — per-vertex signature vectors
//    ranked through a std::map every round, certificates built by
//    sorting every edge pair and printing it with std::to_string, and an
//    orbit union-find rebuilt over every generator for every candidate,
//    with no backjumping. The shipped engine (graph/canonical.cpp) must
//    return the same colourings, certificates and labellings; its
//    automorphism list may be shorter but every entry must be genuine.
//    Also off the obs counters.
//  - KripkeModelReference (+ kripke_from_graph_reference,
//    structure_of_reference): the pre-store Kripke model — one std::map
//    entry per registered modality holding one sorted successor row per
//    state, built edge by edge, unioned row by row, and reduced to a
//    RelationalStructure relation by relation. The shipped flat store
//    (logic/kripke.hpp) must agree with it on modalities, every successor
//    list, to_string, the canonical certificate and the model checker.
//    eval_naive runs on either model. Off the obs counters.
//  - is_graded_reference / in_signature_reference / max_prop_reference /
//    max_port_reference: the pre-attribute Formula helpers, each a
//    recursive walk over every root-to-leaf path of the DAG (exponential
//    on shared subterms). The O(1) reads Formula::make sets up must
//    return the same answers.
//  - find_isomorphism / are_isomorphic / is_isomorphism: an explicit
//    isomorphism search for small graphs — joint colour refinement, then
//    refinement-pruned backtracking; beyond 8 nodes it composes the two
//    canonical labellings instead. Tests use it to compare independently
//    built constructions and to check canonical-form claims. Off the obs
//    counters.
#pragma once

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bisim/bisimulation.hpp"
#include "graph/canonical.hpp"
#include "graph/graph.hpp"
#include "logic/formula.hpp"
#include "logic/kripke.hpp"
#include "obs/counters.hpp"

namespace wm {

inline bool is_graded_reference(const Formula& f) {
  if (f.kind() == Formula::Kind::Diamond && f.grade() >= 2) return true;
  for (std::size_t i = 0; i < f.num_children(); ++i) {
    if (is_graded_reference(f.child(i))) return true;
  }
  return false;
}

inline bool in_signature_reference(const Formula& f, Variant variant,
                                   int delta) {
  if (f.kind() == Formula::Kind::Diamond || f.kind() == Formula::Kind::Box) {
    const Modality a = f.modality();
    const bool in_star = a.in == 0, out_star = a.out == 0;
    bool ok = false;
    switch (variant) {
      case Variant::PlusPlus: ok = !in_star && !out_star; break;
      case Variant::MinusPlus: ok = in_star && !out_star; break;
      case Variant::PlusMinus: ok = !in_star && out_star; break;
      case Variant::MinusMinus: ok = in_star && out_star; break;
    }
    if (!ok || a.in > delta || a.out > delta) return false;
  }
  if (f.kind() == Formula::Kind::Prop && f.prop_id() > delta) return false;
  for (std::size_t i = 0; i < f.num_children(); ++i) {
    if (!in_signature_reference(f.child(i), variant, delta)) return false;
  }
  return true;
}

inline int max_prop_reference(const Formula& f) {
  int m = f.kind() == Formula::Kind::Prop ? f.prop_id() : 0;
  for (std::size_t i = 0; i < f.num_children(); ++i) {
    m = std::max(m, max_prop_reference(f.child(i)));
  }
  return m;
}

inline int max_port_reference(const Formula& f) {
  int m = 0;
  if (f.kind() == Formula::Kind::Diamond || f.kind() == Formula::Kind::Box) {
    m = std::max(f.modality().in, f.modality().out);
  }
  for (std::size_t i = 0; i < f.num_children(); ++i) {
    m = std::max(m, max_port_reference(f.child(i)));
  }
  return m;
}

template <class Model>
std::vector<bool> eval_naive(const Model& k, const Formula& f) {
  WM_COUNT(modelcheck.evals);
  const int n = k.num_states();
  std::vector<bool> out(static_cast<std::size_t>(n), false);
  switch (f.kind()) {
    case Formula::Kind::True:
      out.assign(static_cast<std::size_t>(n), true);
      break;
    case Formula::Kind::False:
      break;
    case Formula::Kind::Prop: {
      const int q = f.prop_id();
      if (q <= k.num_props()) {
        for (int v = 0; v < n; ++v) out[v] = k.prop_holds(q, v);
      }
      break;
    }
    case Formula::Kind::Not: {
      auto c = eval_naive(k, f.child());
      for (int v = 0; v < n; ++v) out[v] = !c[v];
      break;
    }
    case Formula::Kind::And: {
      auto a = eval_naive(k, f.child(0));
      auto b = eval_naive(k, f.child(1));
      for (int v = 0; v < n; ++v) out[v] = a[v] && b[v];
      break;
    }
    case Formula::Kind::Or: {
      auto a = eval_naive(k, f.child(0));
      auto b = eval_naive(k, f.child(1));
      for (int v = 0; v < n; ++v) out[v] = a[v] || b[v];
      break;
    }
    case Formula::Kind::Diamond: {
      auto c = eval_naive(k, f.child());
      const int need = f.grade();
      for (int v = 0; v < n; ++v) {
        int cnt = 0;
        for (int w : k.successors(f.modality(), v)) {
          if (c[w] && ++cnt >= need) break;
        }
        out[v] = cnt >= need;
      }
      break;
    }
    case Formula::Kind::Box: {
      auto c = eval_naive(k, f.child());
      for (int v = 0; v < n; ++v) {
        bool all = true;
        for (int w : k.successors(f.modality(), v)) {
          if (!c[w]) {
            all = false;
            break;
          }
        }
        out[v] = all;
      }
      break;
    }
  }
  return out;
}

inline std::vector<bool> model_check_naive(const KripkeModel& k,
                                           const Formula& phi) {
  return eval_naive(k, phi);
}

// --- Kripke models: the pre-store map of successor rows ----------------------

class KripkeModelReference {
 public:
  KripkeModelReference(int num_states, int num_props)
      : num_states_(num_states),
        num_props_(num_props),
        valuation_(static_cast<std::size_t>(num_props),
                   std::vector<bool>(static_cast<std::size_t>(num_states))) {}

  int num_states() const { return num_states_; }
  int num_props() const { return num_props_; }

  void add_edge(const Modality& alpha, int from, int to) {
    ensure_relation(alpha);
    std::vector<int>& succ = rel_[alpha][from];
    succ.insert(std::upper_bound(succ.begin(), succ.end(), to), to);
  }
  void ensure_relation(const Modality& alpha) {
    if (!rel_.contains(alpha)) {
      rel_[alpha].assign(static_cast<std::size_t>(num_states_), {});
    }
  }
  void set_prop(int q, int state, bool value = true) {
    valuation_[q - 1][state] = value;
  }
  bool prop_holds(int q, int state) const { return valuation_[q - 1][state]; }

  const std::vector<int>& successors(const Modality& alpha, int state) const {
    static const std::vector<int> empty;
    const auto it = rel_.find(alpha);
    return it == rel_.end() ? empty : it->second[state];
  }
  std::vector<Modality> modalities() const {
    std::vector<Modality> out;
    for (const auto& [alpha, _] : rel_) out.push_back(alpha);
    return out;
  }

  /// Row by row: each part's rows copied with its states shifted.
  static KripkeModelReference disjoint_union(
      const std::vector<KripkeModelReference>& parts,
      std::vector<int>* offsets = nullptr) {
    int states = 0;
    int props = 0;
    if (offsets != nullptr) offsets->clear();
    for (const KripkeModelReference& k : parts) {
      if (offsets != nullptr) offsets->push_back(states);
      states += k.num_states_;
      props = std::max(props, k.num_props_);
    }
    KripkeModelReference u(states, props);
    int base = 0;
    for (const KripkeModelReference& k : parts) {
      for (const auto& [alpha, rows] : k.rel_) {
        u.ensure_relation(alpha);
        for (int v = 0; v < k.num_states_; ++v) {
          for (const int w : rows[v]) u.rel_[alpha][base + v].push_back(base + w);
        }
      }
      for (int q = 1; q <= k.num_props_; ++q) {
        for (int v = 0; v < k.num_states_; ++v) {
          if (k.prop_holds(q, v)) u.set_prop(q, base + v);
        }
      }
      base += k.num_states_;
    }
    return u;
  }

  std::string to_string() const {
    std::string out = "Kripke(|W|=" + std::to_string(num_states_) +
                      ", props=" + std::to_string(num_props_) + ")";
    for (const auto& [alpha, rows] : rel_) {
      out += "\n  R" + alpha.to_string() + ":";
      for (int v = 0; v < num_states_; ++v) {
        for (const int w : rows[v]) {
          out += " (" + std::to_string(v) + "->" + std::to_string(w) + ")";
        }
      }
    }
    return out;
  }

 private:
  int num_states_;
  int num_props_;
  std::map<Modality, std::vector<std::vector<int>>> rel_;
  std::vector<std::vector<bool>> valuation_;  // [q-1][state]
};

/// K_{a,b}(G, p) built edge by edge from the out-ports, as before the
/// flat store.
inline KripkeModelReference kripke_from_graph_reference(const PortNumbering& p,
                                                        Variant variant,
                                                        int delta = -1) {
  const Graph& g = p.graph();
  if (delta < 0) delta = g.max_degree();
  KripkeModelReference k(g.num_nodes(), delta);
  switch (variant) {
    case Variant::PlusPlus:
      for (int i = 1; i <= delta; ++i) {
        for (int j = 1; j <= delta; ++j) k.ensure_relation({i, j});
      }
      break;
    case Variant::MinusPlus:
      for (int j = 1; j <= delta; ++j) k.ensure_relation({0, j});
      break;
    case Variant::PlusMinus:
      for (int i = 1; i <= delta; ++i) k.ensure_relation({i, 0});
      break;
    case Variant::MinusMinus:
      k.ensure_relation({0, 0});
      break;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (int j = 1; j <= g.degree(v); ++j) {
      const PortRef dst = p.forward({v, j});
      const int i = dst.index;
      const Modality alpha =
          variant == Variant::PlusPlus    ? Modality{i, j}
          : variant == Variant::MinusPlus ? Modality{0, j}
          : variant == Variant::PlusMinus ? Modality{i, 0}
                                          : Modality{0, 0};
      k.add_edge(alpha, dst.node, v);
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) >= 1) k.set_prop(g.degree(v), v);
  }
  return k;
}

/// The Kripke reduction of graph/canonical.hpp over the reference rows,
/// relation by relation.
inline RelationalStructure structure_of_reference(const KripkeModelReference& k) {
  const int n = k.num_states();
  RelationalStructure s;
  s.n = n;
  s.header = "K;P" + std::to_string(k.num_props()) + ";M";
  const std::vector<Modality> mods = k.modalities();
  for (const Modality& alpha : mods) s.header += alpha.to_string() + ",";
  s.header += ';';
  std::map<std::vector<bool>, int> profiles;
  std::vector<std::vector<bool>> profile_of(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    for (int q = 1; q <= k.num_props(); ++q) {
      profile_of[v].push_back(k.prop_holds(q, v));
    }
    profiles.emplace(profile_of[v], 0);
  }
  int next_id = 0;
  for (auto& [profile, id] : profiles) {
    id = next_id++;
    s.header += 'v';
    for (const bool b : profile) s.header += b ? '1' : '0';
  }
  s.header += ';';
  for (int v = 0; v < n; ++v) s.colour.push_back(profiles[profile_of[v]]);
  for (const Modality& alpha : mods) {
    const std::size_t r = s.add_relation();
    for (int v = 0; v < n; ++v) {
      for (const int w : k.successors(alpha, v)) s.add_edge(r, v, w);
    }
  }
  return s;
}

inline Partition refine_reference_impl(const KripkeModel& k, bool graded,
                                int max_rounds) {
  const int n = k.num_states();
  const auto modalities = k.modalities();

  Partition p = valuation_partition(k);

  for (int round = 0; max_rounds < 0 || round < max_rounds; ++round) {
    // Signature of v: (current block, per-modality set/multiset of
    // successor blocks).
    using Sig = std::pair<int, std::vector<std::vector<int>>>;
    std::map<Sig, int> dict;
    std::vector<int> next(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      std::vector<std::vector<int>> succ_sig;
      succ_sig.reserve(modalities.size());
      for (const Modality& alpha : modalities) {
        std::vector<int> blocks;
        for (int w : k.successors(alpha, v)) blocks.push_back(p.block[w]);
        std::sort(blocks.begin(), blocks.end());
        if (!graded) {
          blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
        }
        succ_sig.push_back(std::move(blocks));
      }
      Sig sig{p.block[v], std::move(succ_sig)};
      auto [it, _] = dict.try_emplace(std::move(sig), static_cast<int>(dict.size()));
      next[v] = it->second;
    }
    const int new_blocks = static_cast<int>(dict.size());
    if (new_blocks == p.num_blocks) {
      // Fixpoint: signatures refine the partition but produced no split.
      p.rounds = round;
      return p;
    }
    p.block = std::move(next);
    p.num_blocks = new_blocks;
    p.rounds = round + 1;
  }
  return p;
}

inline Partition coarsest_bisimulation_reference(const KripkeModel& k,
                                                 int max_rounds = -1) {
  return refine_reference_impl(k, /*graded=*/false, max_rounds);
}

inline Partition coarsest_graded_bisimulation_reference(const KripkeModel& k,
                                                        int max_rounds = -1) {
  return refine_reference_impl(k, /*graded=*/true, max_rounds);
}

/// The pre-row graded quotient: for every (modality, block) pair a
/// num_blocks-long count vector is filled from the block's first member
/// and scanned, O(m·B²) over m modalities and B blocks. The shipped
/// graded_quotient_model (bisim/quotient.hpp) must build the same model.
/// Off the obs counters.
inline KripkeModel graded_quotient_model_reference(const KripkeModel& k,
                                                   const Partition& p) {
  KripkeModel q(p.num_blocks, k.num_props());
  const auto blocks = p.blocks();
  for (const Modality& alpha : k.modalities()) {
    q.ensure_relation(alpha);
    for (int b = 0; b < p.num_blocks; ++b) {
      if (blocks[b].empty()) continue;
      const int rep = blocks[b][0];
      std::vector<int> count(static_cast<std::size_t>(p.num_blocks), 0);
      for (int w : k.successors(alpha, rep)) ++count[p.block[w]];
      for (int c = 0; c < p.num_blocks; ++c) {
        for (int i = 0; i < count[c]; ++i) q.add_edge(alpha, b, c);
      }
    }
  }
  for (int b = 0; b < p.num_blocks; ++b) {
    if (blocks[b].empty()) continue;
    const int rep = blocks[b][0];
    for (int prop = 1; prop <= k.num_props(); ++prop) {
      if (k.prop_holds(prop, rep)) q.set_prop(prop, b);
    }
  }
  return q;
}

// --- Characteristic formulas: the pre-observer layer builder ---------------

/// One refinement round: block ids (numbered by first member) and the
/// characteristic formula of every block.
struct CharacteristicLayer {
  std::vector<int> block;
  int num_blocks = 0;
  std::vector<Formula> chi;  // per block id
};

namespace distinguish_reference_detail {

inline CharacteristicLayer initial_layer(const KripkeModel& k) {
  CharacteristicLayer layer;
  const int n = k.num_states();
  Partition p = valuation_partition(k);
  layer.block = std::move(p.block);
  layer.num_blocks = p.num_blocks;
  layer.chi.resize(static_cast<std::size_t>(p.num_blocks));
  std::vector<char> built(static_cast<std::size_t>(p.num_blocks), 0);
  for (int v = 0; v < n; ++v) {
    const int b = layer.block[v];
    if (built[b]) continue;
    built[b] = 1;
    FormulaVec conj;
    for (int q = 1; q <= k.num_props(); ++q) {
      conj.push_back(k.prop_holds(q, v) ? Formula::prop(q)
                                        : Formula::negate(Formula::prop(q)));
    }
    layer.chi[b] = Formula::conj_all(std::move(conj));
  }
  return layer;
}

/// Successor counts of `state` into each block of `prev`, per modality.
inline std::vector<std::vector<int>> successor_counts(
    const KripkeModel& k, const CharacteristicLayer& prev, int state,
    const std::vector<Modality>& mods) {
  std::vector<std::vector<int>> counts(
      mods.size(),
      std::vector<int>(static_cast<std::size_t>(prev.num_blocks), 0));
  for (std::size_t a = 0; a < mods.size(); ++a) {
    for (int w : k.successors(mods[a], state)) {
      ++counts[a][prev.block[w]];
    }
  }
  return counts;
}

inline CharacteristicLayer refine_layer(const KripkeModel& k,
                                        const CharacteristicLayer& prev,
                                        bool graded) {
  const int n = k.num_states();
  const auto mods = k.modalities();
  CharacteristicLayer next;
  next.block.assign(static_cast<std::size_t>(n), 0);

  // Signature: previous block + per-modality per-block counts (graded)
  // or presence bits (ungraded).
  using Sig = std::pair<int, std::vector<std::vector<int>>>;
  std::map<Sig, int> dict;
  std::vector<int> rep;  // representative state per new block
  for (int v = 0; v < n; ++v) {
    auto counts = successor_counts(k, prev, v, mods);
    if (!graded) {
      for (auto& row : counts) {
        for (int& c : row) c = c > 0 ? 1 : 0;
      }
    }
    Sig sig{prev.block[v], std::move(counts)};
    auto [it, fresh] =
        dict.try_emplace(std::move(sig), static_cast<int>(dict.size()));
    next.block[v] = it->second;
    if (fresh) rep.push_back(v);
  }
  next.num_blocks = static_cast<int>(dict.size());

  // Characteristic formulas from each block's representative.
  next.chi.reserve(rep.size());
  for (int b = 0; b < next.num_blocks; ++b) {
    const int s = rep[b];
    FormulaVec conj{prev.chi[prev.block[s]]};
    const auto counts = successor_counts(k, prev, s, mods);
    for (std::size_t a = 0; a < mods.size(); ++a) {
      for (int c = 0; c < prev.num_blocks; ++c) {
        const int cnt = counts[a][c];
        if (graded) {
          if (cnt > 0) {
            conj.push_back(Formula::diamond(mods[a], prev.chi[c], cnt));
          }
          conj.push_back(Formula::negate(
              Formula::diamond(mods[a], prev.chi[c], cnt + 1)));
        } else {
          const Formula d = Formula::diamond(mods[a], prev.chi[c], 1);
          conj.push_back(cnt > 0 ? d : Formula::negate(d));
        }
      }
    }
    next.chi.push_back(Formula::conj_all(std::move(conj)));
  }
  return next;
}

}  // namespace distinguish_reference_detail

/// The layer after exactly `rounds` refinement steps (rounds < 0: the
/// fixpoint); past the fixpoint each round still adds a layer.
inline CharacteristicLayer characteristic_layer_reference(const KripkeModel& k,
                                                          int rounds,
                                                          bool graded) {
  using namespace distinguish_reference_detail;
  CharacteristicLayer layer = initial_layer(k);
  for (int t = 0; rounds < 0 || t < rounds; ++t) {
    CharacteristicLayer next = refine_layer(k, layer, graded);
    if (next.num_blocks == layer.num_blocks && rounds < 0) break;
    layer = std::move(next);
  }
  return layer;
}

inline Formula characteristic_formula_reference(const KripkeModel& k,
                                                int state, bool graded) {
  const CharacteristicLayer layer =
      characteristic_layer_reference(k, -1, graded);
  return layer.chi[layer.block[state]];
}

inline std::optional<Formula> distinguishing_formula_reference(
    const KripkeModel& k, int u, int v, bool graded) {
  using namespace distinguish_reference_detail;
  CharacteristicLayer layer = initial_layer(k);
  for (;;) {
    if (layer.block[u] != layer.block[v]) {
      return layer.chi[layer.block[u]];
    }
    CharacteristicLayer next = refine_layer(k, layer, graded);
    if (next.num_blocks == layer.num_blocks) return std::nullopt;
    layer = std::move(next);
  }
}

// --- Canonical forms: the pre-arena engine ----------------------------------

namespace canonical_reference_detail {

/// Signature of v under `colour`: own colour, then per relation the
/// sorted successor- and predecessor-colour multisets (separated so
/// distinct positions cannot alias). Contains only colour ids, so the
/// sorted order of signatures is invariant under vertex relabelling.
inline std::vector<int> signature(const RelationalStructure& s,
                                  const std::vector<int>& colour, int v) {
  std::vector<int> sig;
  sig.push_back(colour[v]);
  std::vector<int> nb;
  for (std::size_t r = 0; r < s.out.size(); ++r) {
    nb.clear();
    for (int w : s.out[r][v]) nb.push_back(colour[w]);
    std::sort(nb.begin(), nb.end());
    sig.push_back(-2);  // out-side separator
    sig.insert(sig.end(), nb.begin(), nb.end());
    nb.clear();
    for (int w : s.in[r][v]) nb.push_back(colour[w]);
    std::sort(nb.begin(), nb.end());
    sig.push_back(-3);  // in-side separator
    sig.insert(sig.end(), nb.begin(), nb.end());
  }
  return sig;
}

}  // namespace canonical_reference_detail

inline std::vector<int> refine_colours_reference(const RelationalStructure& s,
                                                 std::vector<int> colour) {
  const int n = s.n;
  if (n == 0) return colour;
  // Each round renumbers classes by sorted signature order (std::map
  // iteration), so the ids — not merely the partition — are canonical.
  // One extra round normalises possibly non-contiguous input ids (the
  // individualisation step doubles them).
  for (int round = 0; round <= n + 1; ++round) {
    std::map<std::vector<int>, int> ids;
    std::vector<std::vector<int>> key(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      key[v] = canonical_reference_detail::signature(s, colour, v);
      ids.emplace(key[v], 0);
    }
    int next_id = 0;
    for (auto& [sig, id] : ids) id = next_id++;
    std::vector<int> next(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) next[v] = ids.find(key[v])->second;
    if (next == colour) break;
    colour = std::move(next);
  }
  return colour;
}

namespace canonical_reference_detail {

/// Serialises the structure under a discrete colouring (= labelling).
/// Initial colours come first — two certificates are equal iff the
/// relabelled structures coincide, valuation content included.
inline std::string certify(const RelationalStructure& s,
                           const std::vector<int>& lab) {
  const int n = s.n;
  std::vector<int> inv(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) inv[lab[v]] = v;
  std::string cert = s.header;
  cert += "n";
  cert += std::to_string(n);
  cert += ";c:";
  for (int i = 0; i < n; ++i) {
    cert += std::to_string(s.colour[inv[i]]);
    cert += ',';
  }
  std::vector<std::pair<int, int>> edges;
  for (std::size_t r = 0; r < s.out.size(); ++r) {
    cert += "|r";
    cert += std::to_string(r);
    cert += ':';
    edges.clear();
    for (int v = 0; v < n; ++v) {
      for (int w : s.out[r][v]) edges.emplace_back(lab[v], lab[w]);
    }
    std::sort(edges.begin(), edges.end());
    for (const auto& [a, b] : edges) {
      cert += std::to_string(a);
      cert += '>';
      cert += std::to_string(b);
      cert += ',';
    }
  }
  return cert;
}

struct CanonSearch {
  const RelationalStructure& s;
  CanonicalForm best;
  bool have_best = false;
  std::vector<int> path;  // individualised vertices, root to current

  explicit CanonSearch(const RelationalStructure& structure) : s(structure) {}

  void leaf(const std::vector<int>& lab) {
    std::string cert = certify(s, lab);
    if (!have_best || cert < best.certificate) {
      best.certificate = std::move(cert);
      best.labelling = lab;
      have_best = true;
      return;
    }
    if (cert != best.certificate) return;
    // Two labellings with identical images compose to an automorphism:
    // a = best_lab^{-1} ∘ lab.
    const int n = s.n;
    std::vector<int> inv(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) inv[best.labelling[v]] = v;
    std::vector<int> a(static_cast<std::size_t>(n));
    bool identity = true;
    for (int v = 0; v < n; ++v) {
      a[v] = inv[lab[v]];
      if (a[v] != v) identity = false;
    }
    if (!identity &&
        std::find(best.automorphisms.begin(), best.automorphisms.end(), a) ==
            best.automorphisms.end()) {
      best.automorphisms.push_back(std::move(a));
    }
  }

  /// True if v lies in the orbit of an already-explored branch root under
  /// the discovered automorphisms that fix the current path pointwise —
  /// such a subtree reproduces an explored subtree's certificates exactly.
  bool pruned(int v, const std::vector<int>& tried) const {
    const int n = s.n;
    std::vector<int> parent(static_cast<std::size_t>(n));
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&](int x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (const std::vector<int>& a : best.automorphisms) {
      bool fixes_path = true;
      for (int p : path) {
        if (a[p] != p) {
          fixes_path = false;
          break;
        }
      }
      if (!fixes_path) continue;
      for (int u = 0; u < n; ++u) {
        const int ru = find(u), rv = find(a[u]);
        if (ru != rv) parent[ru] = rv;
      }
    }
    const int rv = find(v);
    for (int u : tried) {
      if (find(u) == rv) return true;
    }
    return false;
  }

  void run(const std::vector<int>& colour) {
    const int n = s.n;
    const int num_colours =
        n == 0 ? 0 : *std::max_element(colour.begin(), colour.end()) + 1;
    if (num_colours == n) {
      leaf(colour);
      return;
    }
    // Target cell: the smallest non-singleton class, lowest colour id on
    // ties — both invariants, so every relabelling branches on the same
    // cell.
    std::vector<int> size(static_cast<std::size_t>(num_colours), 0);
    for (int v = 0; v < n; ++v) ++size[colour[v]];
    int target = -1;
    for (int c = 0; c < num_colours; ++c) {
      if (size[c] < 2) continue;
      if (target == -1 || size[c] < size[target]) target = c;
    }
    std::vector<int> tried;
    for (int v = 0; v < n; ++v) {
      if (colour[v] != target) continue;
      if (!tried.empty() && pruned(v, tried)) continue;
      tried.push_back(v);
      // Individualise v: a fresh colour sorted immediately before its
      // class (2c-1 between 2(c-1) and 2c), preserving canonical order.
      std::vector<int> ind(colour);
      for (int& c : ind) c *= 2;
      ind[v] -= 1;
      path.push_back(v);
      run(refine_colours_reference(s, std::move(ind)));
      path.pop_back();
    }
  }
};

}  // namespace canonical_reference_detail

inline CanonicalForm canonical_form_reference(const RelationalStructure& s) {
  canonical_reference_detail::CanonSearch search(s);
  if (s.n == 0) {
    search.best.certificate = canonical_reference_detail::certify(s, {});
    return std::move(search.best);
  }
  search.run(refine_colours_reference(s, s.colour));
  return std::move(search.best);
}

// --- Explicit graph isomorphism ---------------------------------------------

namespace isomorphism_detail {

/// Above this node count find_isomorphism hands over to the
/// canonical-form path: compare certificates and, on a hit, compose the
/// two canonical labellings into an explicit isomorphism. Below it the
/// direct exhaustive search is cheaper than two canonicalisations.
constexpr int kExhaustiveCutoff = 8;

/// Stable colour refinement; returns per-node colours canonical across
/// the two graphs (computed jointly so colours are comparable).
inline std::pair<std::vector<int>, std::vector<int>> joint_refinement(
    const Graph& g, const Graph& h) {
  const int n = g.num_nodes();
  std::vector<int> cg(static_cast<std::size_t>(n));
  std::vector<int> ch(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    cg[v] = g.degree(v);
    ch[v] = h.degree(v);
  }
  for (int round = 0; round < n; ++round) {
    std::map<std::pair<int, std::vector<int>>, int> dict;
    auto signature = [&dict](const Graph& graph, const std::vector<int>& col,
                             int v) {
      std::vector<int> nb;
      for (NodeId u : graph.neighbours(v)) nb.push_back(col[u]);
      std::sort(nb.begin(), nb.end());
      auto [it, _] = dict.try_emplace({col[v], std::move(nb)},
                                      static_cast<int>(dict.size()));
      return it->second;
    };
    std::vector<int> ng(static_cast<std::size_t>(n)), nh(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) ng[v] = signature(g, cg, v);
    for (int v = 0; v < n; ++v) nh[v] = signature(h, ch, v);
    if (ng == cg && nh == ch) break;
    cg = std::move(ng);
    ch = std::move(nh);
  }
  return {cg, ch};
}

struct Matcher {
  const Graph& g;
  const Graph& h;
  const std::vector<int>& cg;
  const std::vector<int>& ch;
  std::vector<NodeId> map;       // g -> h, -1 unset
  std::vector<bool> used;        // h nodes taken

  bool extend(NodeId v) {
    const int n = g.num_nodes();
    if (v == n) return true;
    for (NodeId w = 0; w < n; ++w) {
      if (used[w] || cg[v] != ch[w]) continue;
      // Consistency with already-mapped neighbours (both directions).
      bool ok = true;
      for (NodeId u = 0; u < v && ok; ++u) {
        if (g.has_edge(v, u) != h.has_edge(w, map[u])) ok = false;
      }
      if (!ok) continue;
      map[v] = w;
      used[w] = true;
      if (extend(v + 1)) return true;
      map[v] = -1;
      used[w] = false;
    }
    return false;
  }
};

}  // namespace isomorphism_detail

/// An isomorphism g -> h as a node map, if one exists. Small graphs use
/// refinement-pruned exhaustive backtracking; beyond the exhaustive
/// cutoff (n > 8) the search routes through graph/canonical.hpp —
/// certificates compared, canonical labellings composed into the map —
/// so the worst case is the canonicaliser's, not exponential matching.
inline std::optional<std::vector<NodeId>> find_isomorphism(const Graph& g,
                                                           const Graph& h) {
  if (g.num_nodes() != h.num_nodes() || g.num_edges() != h.num_edges()) {
    return std::nullopt;
  }
  if (g.degree_sequence() != h.degree_sequence()) return std::nullopt;
  if (g.num_nodes() > isomorphism_detail::kExhaustiveCutoff) {
    // Canonical path (exact, no backtracking): certificates are a
    // complete isomorphism key, and map = lab_h^{-1} ∘ lab_g is an
    // isomorphism whenever they agree.
    const CanonicalForm cf_g = canonical_form(g);
    const CanonicalForm cf_h = canonical_form(h);
    if (cf_g.certificate != cf_h.certificate) return std::nullopt;
    std::vector<NodeId> inv_h(static_cast<std::size_t>(h.num_nodes()));
    for (NodeId v = 0; v < h.num_nodes(); ++v) inv_h[cf_h.labelling[v]] = v;
    std::vector<NodeId> map(static_cast<std::size_t>(g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) map[v] = inv_h[cf_g.labelling[v]];
    return map;
  }
  const auto [cg, ch] = isomorphism_detail::joint_refinement(g, h);
  // Colour histograms must agree.
  {
    auto sorted_g = cg;
    auto sorted_h = ch;
    std::sort(sorted_g.begin(), sorted_g.end());
    std::sort(sorted_h.begin(), sorted_h.end());
    if (sorted_g != sorted_h) return std::nullopt;
  }
  isomorphism_detail::Matcher m{
      g, h, cg, ch,
      std::vector<NodeId>(static_cast<std::size_t>(g.num_nodes()), -1),
      std::vector<bool>(static_cast<std::size_t>(g.num_nodes()), false)};
  if (m.extend(0)) return m.map;
  return std::nullopt;
}

inline bool are_isomorphic(const Graph& g, const Graph& h) {
  return find_isomorphism(g, h).has_value();
}

/// Checks that perm is an isomorphism g -> h.
inline bool is_isomorphism(const Graph& g, const Graph& h,
                           const std::vector<NodeId>& perm) {
  if (g.num_nodes() != h.num_nodes() ||
      perm.size() != static_cast<std::size_t>(g.num_nodes())) {
    return false;
  }
  std::vector<bool> hit(perm.size(), false);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (perm[v] < 0 || perm[v] >= h.num_nodes() || hit[perm[v]]) return false;
    hit[perm[v]] = true;
  }
  if (g.num_edges() != h.num_edges()) return false;
  for (const Edge& e : g.edges()) {
    if (!h.has_edge(perm[e.u], perm[e.v])) return false;
  }
  return true;
}

}  // namespace wm
