#include "logic/kripke.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/counters.hpp"

namespace wm {

namespace {

void check_state(int state, int num_states, const char* what) {
  if (state < 0 || state >= num_states) throw std::out_of_range(what);
}

std::uint64_t edge_key(int a, int to) {
  return static_cast<std::uint64_t>(a) << 32 | static_cast<std::uint32_t>(to);
}

}  // namespace

KripkeModel::KripkeModel(int num_states, int num_props)
    : num_states_(num_states),
      num_props_(num_props),
      out_begin_(static_cast<std::size_t>(num_states) + 1, 0),
      pred_begin_(static_cast<std::size_t>(num_states) + 1, 0) {
  valuation_.assign(static_cast<std::size_t>(num_props),
                    Bitset(static_cast<std::size_t>(num_states)));
}

KripkeModel KripkeModel::from_edges(int num_states, int num_props,
                                    std::span<const KripkeEdge> edges,
                                    std::span<const Modality> relations) {
  KripkeModel k(num_states, num_props);
  for (const Modality& alpha : relations) k.ensure_relation(alpha);
  for (const KripkeEdge& e : edges) {
    check_state(e.from, num_states, "KripkeModel: edge source out of range");
    check_state(e.to, num_states, "KripkeModel: edge target out of range");
    k.ensure_relation(e.alpha);
    ++k.out_begin_[static_cast<std::size_t>(e.from) + 1];
  }
  std::partial_sum(k.out_begin_.begin(), k.out_begin_.end(),
                   k.out_begin_.begin());
  // Bucket the keyed edges by source; place_edges sorts each bucket.
  std::vector<int> fill(k.out_begin_.begin(), k.out_begin_.end() - 1);
  std::vector<std::uint64_t> keys(edges.size());
  for (const KripkeEdge& e : edges) {
    keys[static_cast<std::size_t>(fill[e.from]++)] =
        edge_key(k.modality_id(e.alpha), e.to);
  }
  k.place_edges(keys);
  return k;
}

void KripkeModel::place_edges(std::vector<std::uint64_t>& keys) {
  const auto n = static_cast<std::size_t>(num_states_);
  out_mod_.resize(keys.size());
  out_to_.resize(keys.size());
  pred_begin_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(keys.begin() + out_begin_[v], keys.begin() + out_begin_[v + 1]);
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out_mod_[i] = static_cast<int>(keys[i] >> 32);
    out_to_[i] = static_cast<int>(keys[i] & 0xffffffffu);
    ++pred_begin_[static_cast<std::size_t>(out_to_[i]) + 1];
  }
  std::partial_sum(pred_begin_.begin(), pred_begin_.end(),
                   pred_begin_.begin());
  // Sources in state order, so each state's predecessors come ascending.
  std::vector<int> fill(pred_begin_.begin(), pred_begin_.end() - 1);
  pred_.resize(keys.size());
  for (std::size_t v = 0; v < n; ++v) {
    for (int i = out_begin_[v]; i < out_begin_[v + 1]; ++i) {
      pred_[static_cast<std::size_t>(fill[out_to_[i]]++)] = static_cast<int>(v);
    }
  }
}

void KripkeModel::add_edge(const Modality& alpha, int from, int to) {
  check_state(from, num_states_, "add_edge: source out of range");
  check_state(to, num_states_, "add_edge: target out of range");
  ensure_relation(alpha);
  const std::uint64_t key = edge_key(modality_id(alpha), to);
  // After any equal edge, so from's range stays in (id, target) order.
  int i = out_begin_[from];
  while (i < out_begin_[from + 1] && edge_key(out_mod_[i], out_to_[i]) <= key) {
    ++i;
  }
  out_mod_.insert(out_mod_.begin() + i, static_cast<int>(key >> 32));
  out_to_.insert(out_to_.begin() + i, to);
  for (auto v = static_cast<std::size_t>(from) + 1; v < out_begin_.size(); ++v) {
    ++out_begin_[v];
  }
  const auto preds = pred_.begin();
  pred_.insert(std::upper_bound(preds + pred_begin_[to],
                                preds + pred_begin_[to + 1], from),
               from);
  for (auto v = static_cast<std::size_t>(to) + 1; v < pred_begin_.size(); ++v) {
    ++pred_begin_[v];
  }
}

void KripkeModel::ensure_relation(const Modality& alpha) {
  const auto it = std::lower_bound(mods_.begin(), mods_.end(), alpha);
  if (it == mods_.end() || *it != alpha) {
    const auto a = static_cast<int>(it - mods_.begin());
    mods_.insert(it, alpha);
    for (int& m : out_mod_) m += m >= a ? 1 : 0;
  }
}

void KripkeModel::set_prop(int q, int state, bool value) {
  if (q < 1 || q > num_props_) throw std::out_of_range("set_prop: bad q");
  check_state(state, num_states_, "set_prop: bad state");
  valuation_[q - 1].set(static_cast<std::size_t>(state), value);
}

int KripkeModel::modality_id(const Modality& alpha) const {
  const auto it = std::lower_bound(mods_.begin(), mods_.end(), alpha);
  return it != mods_.end() && *it == alpha
             ? static_cast<int>(it - mods_.begin())
             : -1;
}

std::span<const int> KripkeModel::successors(int a, int state) const {
  const std::span<const int> mods = out_modalities(state);
  const auto [lo, hi] = std::equal_range(mods.begin(), mods.end(), a);
  return out_targets(state).subspan(static_cast<std::size_t>(lo - mods.begin()),
                                    static_cast<std::size_t>(hi - lo));
}

std::vector<KripkeEdge> KripkeModel::edges() const {
  std::vector<KripkeEdge> out;
  out.reserve(out_to_.size());
  for (int v = 0; v < num_states_; ++v) {
    for (int i = out_begin_[v]; i < out_begin_[v + 1]; ++i) {
      out.push_back({mods_[out_mod_[i]], v, out_to_[i]});
    }
  }
  return out;
}

KripkeModel KripkeModel::union_of(std::span<const KripkeModel* const> parts,
                                  std::vector<int>* offsets) {
  int states = 0;
  int props = 0;
  std::size_t edges = 0;
  std::vector<Modality> mods;
  std::vector<Modality> merged;
  if (offsets != nullptr) offsets->clear();
  for (const KripkeModel* k : parts) {
    if (offsets != nullptr) offsets->push_back(states);
    states += k->num_states_;
    props = std::max(props, k->num_props_);
    edges += k->out_to_.size();
    merged.clear();
    std::set_union(mods.begin(), mods.end(), k->mods_.begin(), k->mods_.end(),
                   std::back_inserter(merged));
    mods.swap(merged);
  }
  KripkeModel u(states, props);
  u.mods_ = std::move(mods);
  u.out_mod_.reserve(edges);
  u.out_to_.reserve(edges);
  u.pred_.reserve(edges);
  // Parts are disjoint, so the union's store is the parts' stores laid
  // end to end: targets and sources shift by the part's first state, and
  // ids map monotonically into the merged modality list, so every
  // state's edges stay in (id, target) order.
  std::vector<int> remap;
  int base = 0;
  for (const KripkeModel* k : parts) {
    remap.clear();
    for (const Modality& alpha : k->mods_) remap.push_back(u.modality_id(alpha));
    const auto out_base = static_cast<int>(u.out_to_.size());
    const auto pred_base = static_cast<int>(u.pred_.size());
    for (int v = 1; v <= k->num_states_; ++v) {
      u.out_begin_[base + v] = out_base + k->out_begin_[v];
      u.pred_begin_[base + v] = pred_base + k->pred_begin_[v];
    }
    for (const int a : k->out_mod_) u.out_mod_.push_back(remap[a]);
    for (const int w : k->out_to_) u.out_to_.push_back(base + w);
    for (const int s : k->pred_) u.pred_.push_back(base + s);
    for (int q = 0; q < k->num_props_; ++q) {
      k->valuation_[q].for_each_set([&](std::size_t v) {
        u.valuation_[q].set(static_cast<std::size_t>(base) + v);
      });
    }
    base += k->num_states_;
  }
  WM_COUNT_ADD(kripke.edges_copied, u.out_to_.size());
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
  for (int a = 0; a < static_cast<int>(mods_.size()); ++a) {
    os << "\n  R" << mods_[a].to_string() << ":";
    for (int v = 0; v < num_states_; ++v) {
      for (int w : successors(a, v)) os << " (" << v << "->" << w << ")";
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
  const int n = g.num_nodes();
  KripkeModel k(n, delta);
  // The full signature is registered, in sorted order, so bisimulation
  // sees empty relations too; id_of is a modality's index in it.
  switch (variant) {
    case Variant::PlusPlus:
      for (int i = 1; i <= delta; ++i) {
        for (int j = 1; j <= delta; ++j) k.mods_.push_back({i, j});
      }
      break;
    case Variant::MinusPlus:
      for (int j = 1; j <= delta; ++j) k.mods_.push_back({0, j});
      break;
    case Variant::PlusMinus:
      for (int i = 1; i <= delta; ++i) k.mods_.push_back({i, 0});
      break;
    case Variant::MinusMinus:
      k.mods_.push_back({0, 0});
      break;
  }
  auto id_of = [&](int i, int j) {
    switch (variant) {
      case Variant::PlusPlus:
        return (i - 1) * delta + (j - 1);
      case Variant::MinusPlus:
        return j - 1;
      case Variant::PlusMinus:
        return i - 1;
      case Variant::MinusMinus:
        break;
    }
    return 0;
  };
  // R_(i,j) = {(u,v) : p((v,j)) = (u,i)}: v sends through out-port j and
  // the message lands in u's in-port i; u's modal successors are the
  // nodes whose messages it can hear, one per in-port.
  for (NodeId u = 0; u < n; ++u) k.out_begin_[u + 1] = k.out_begin_[u] + g.degree(u);
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(k.out_begin_[n]));
  for (NodeId u = 0; u < n; ++u) {
    for (int i = 1; i <= g.degree(u); ++i) {
      const PortRef src = p.backward({u, i});
      keys.push_back(edge_key(id_of(i, src.index), src.node));
    }
    if (g.degree(u) >= 1) k.set_prop(g.degree(u), u);
  }
  k.place_edges(keys);
  return k;
}

}  // namespace wm
