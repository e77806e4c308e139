#include "logic/kripke.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "obs/counters.hpp"

namespace wm {

KripkeModel::KripkeModel(int num_states, int num_props)
    : num_states_(num_states), num_props_(num_props) {
  valuation_.assign(static_cast<std::size_t>(num_props),
                    Bitset(static_cast<std::size_t>(num_states)));
}

void KripkeModel::add_edge(const Modality& alpha, int from, int to) {
  ensure_relation(alpha);
  auto& succ = rel_[alpha][from];
  succ.insert(std::upper_bound(succ.begin(), succ.end(), to), to);
}

void KripkeModel::ensure_relation(const Modality& alpha) {
  auto it = rel_.find(alpha);
  if (it == rel_.end()) {
    rel_[alpha].assign(static_cast<std::size_t>(num_states_), {});
  }
}

void KripkeModel::set_prop(int q, int state, bool value) {
  if (q < 1 || q > num_props_) throw std::out_of_range("set_prop: bad q");
  valuation_[q - 1].set(static_cast<std::size_t>(state), value);
}

const std::vector<int>& KripkeModel::successors(const Modality& alpha,
                                                int state) const {
  static const std::vector<int> empty;
  auto it = rel_.find(alpha);
  if (it == rel_.end()) return empty;
  return it->second[state];
}

const std::vector<std::vector<int>>* KripkeModel::relation(
    const Modality& alpha) const {
  auto it = rel_.find(alpha);
  return it == rel_.end() ? nullptr : &it->second;
}

std::vector<Modality> KripkeModel::modalities() const {
  std::vector<Modality> out;
  out.reserve(rel_.size());
  for (const auto& [alpha, _] : rel_) out.push_back(alpha);
  return out;
}

KripkeModel KripkeModel::union_of(std::span<const KripkeModel* const> parts,
                                  std::vector<int>* offsets) {
  int states = 0;
  int props = 0;
  if (offsets != nullptr) offsets->clear();
  for (const KripkeModel* k : parts) {
    if (offsets != nullptr) offsets->push_back(states);
    states += k->num_states_;
    props = std::max(props, k->num_props_);
  }
  KripkeModel u(states, props);
  // Parts are disjoint, so every union row is one part's row shifted by
  // a constant: still sorted, and copied without a per-edge insert.
  [[maybe_unused]] std::uint64_t copied = 0;
  int base = 0;
  for (const KripkeModel* k : parts) {
    for (const auto& [alpha, succ] : k->rel_) {
      std::vector<std::vector<int>>& rows =
          u.rel_.try_emplace(alpha, static_cast<std::size_t>(states))
              .first->second;
      for (int v = 0; v < k->num_states_; ++v) {
        std::vector<int>& row = rows[base + v];
        row.assign(succ[v].begin(), succ[v].end());
        for (int& w : row) w += base;
        copied += row.size();
      }
    }
    for (int q = 0; q < k->num_props_; ++q) {
      k->valuation_[q].for_each_set([&](std::size_t v) {
        u.valuation_[q].set(static_cast<std::size_t>(base) + v);
      });
    }
    base += k->num_states_;
  }
  WM_COUNT_ADD(kripke.edges_copied, copied);
  return u;
}

KripkeModel KripkeModel::disjoint_union(std::span<const KripkeModel> parts,
                                        std::vector<int>* offsets) {
  std::vector<const KripkeModel*> ptrs;
  ptrs.reserve(parts.size());
  for (const KripkeModel& k : parts) ptrs.push_back(&k);
  return union_of(ptrs, offsets);
}

KripkeModel KripkeModel::disjoint_union(const KripkeModel& a,
                                        const KripkeModel& b) {
  const KripkeModel* parts[] = {&a, &b};
  return union_of(parts, nullptr);
}

std::string KripkeModel::to_string() const {
  std::ostringstream os;
  os << "Kripke(|W|=" << num_states_ << ", props=" << num_props_ << ")";
  for (const auto& [alpha, succ] : rel_) {
    os << "\n  R" << alpha.to_string() << ":";
    for (int v = 0; v < num_states_; ++v) {
      for (int w : succ[v]) os << " (" << v << "->" << w << ")";
    }
  }
  return os.str();
}

KripkeModel kripke_from_graph(const PortNumbering& p, Variant variant,
                              int delta) {
  WM_COUNT(kripke.models);
  const Graph& g = p.graph();
  if (delta < 0) delta = g.max_degree();
  if (delta < g.max_degree()) {
    throw std::invalid_argument("kripke_from_graph: delta below max degree");
  }
  KripkeModel k(g.num_nodes(), delta);
  // Register the full signature so bisimulation sees empty relations too.
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
  // R_(i,j) = {(u,v) : p((v,j)) = (u,i)}: v sends through out-port j and
  // the message lands in u's in-port i; u's modal successors are the
  // nodes whose messages it can hear.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (int j = 1; j <= g.degree(v); ++j) {
      const PortRef dst = p.forward({v, j});
      const NodeId u = dst.node;
      const int i = dst.index;
      switch (variant) {
        case Variant::PlusPlus:
          k.add_edge({i, j}, u, v);
          break;
        case Variant::MinusPlus:
          k.add_edge({0, j}, u, v);
          break;
        case Variant::PlusMinus:
          k.add_edge({i, 0}, u, v);
          break;
        case Variant::MinusMinus:
          k.add_edge({0, 0}, u, v);
          break;
      }
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) >= 1) k.set_prop(g.degree(v), v);
  }
  return k;
}

}  // namespace wm
