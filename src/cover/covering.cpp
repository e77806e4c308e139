#include "cover/covering.hpp"

#include <deque>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "graph/properties.hpp"
#include "obs/histogram.hpp"
#include "obs/progress.hpp"
#include "util/visitor.hpp"

namespace wm {

bool is_covering_map(const PortNumbering& h, const PortNumbering& g,
                     const std::vector<NodeId>& phi) {
  const Graph& gh = h.graph();
  const Graph& gg = g.graph();
  if (phi.size() != static_cast<std::size_t>(gh.num_nodes())) return false;
  std::vector<bool> hit(static_cast<std::size_t>(gg.num_nodes()), false);
  for (NodeId v = 0; v < gh.num_nodes(); ++v) {
    if (phi[v] < 0 || phi[v] >= gg.num_nodes()) return false;
    if (gh.degree(v) != gg.degree(phi[v])) return false;
    hit[phi[v]] = true;
    for (int i = 1; i <= gh.degree(v); ++i) {
      const PortRef up = h.forward({v, i});
      const PortRef down = g.forward({phi[v], i});
      if (down.node != phi[up.node] || down.index != up.index) return false;
    }
  }
  for (bool b : hit) {
    if (!b) return false;  // surjectivity
  }
  return true;
}

namespace {

/// Propagates a candidate anchor assignment (component anchor ->
/// G-node) across H via the ports; returns the full map if propagation
/// is consistent AND the result passes the literal is_covering_map
/// check, else nullopt.
std::optional<std::vector<NodeId>> propagate_cover(
    const PortNumbering& h, const PortNumbering& g,
    const std::vector<std::vector<NodeId>>& components,
    const std::vector<NodeId>& anchor_images) {
  const Graph& gh = h.graph();
  const Graph& gg = g.graph();
  std::vector<NodeId> phi(static_cast<std::size_t>(gh.num_nodes()), -1);
  for (std::size_t c = 0; c < components.size(); ++c) {
    const NodeId anchor = components[c][0];
    const NodeId image = anchor_images[c];
    if (gh.degree(anchor) != gg.degree(image)) return std::nullopt;
    phi[anchor] = image;
    std::deque<NodeId> queue{anchor};
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      for (int i = 1; i <= gh.degree(v); ++i) {
        const PortRef up = h.forward({v, i});
        const PortRef down = g.forward({phi[v], i});
        if (phi[up.node] < 0) {
          if (gh.degree(up.node) != gg.degree(down.node)) return std::nullopt;
          phi[up.node] = down.node;
          queue.push_back(up.node);
        } else if (phi[up.node] != down.node) {
          return std::nullopt;
        }
      }
    }
  }
  if (!is_covering_map(h, g, phi)) return std::nullopt;
  return phi;
}

}  // namespace

std::optional<std::vector<NodeId>> find_covering_map(
    const PortNumbering& h, const PortNumbering& g, ThreadPool* pool) {
  WM_SCOPE("cover.find");
  const std::vector<std::vector<NodeId>> components =
      connected_components(h.graph());
  const std::uint64_t base = static_cast<std::uint64_t>(g.graph().num_nodes());

  // Candidate space: one G-node per component anchor, mixed radix with
  // component 0 as the least significant digit.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t space = 1;
  for (std::size_t c = 0; c < components.size(); ++c) {
    if (base != 0 && space > kMax / base) {
      throw std::invalid_argument(
          "find_covering_map: anchor space exceeds 64 bits");
    }
    space *= base;
  }

  auto images_for = [&](std::uint64_t a) {
    std::vector<NodeId> images(components.size());
    for (std::size_t c = 0; c < components.size(); ++c) {
      images[c] = static_cast<NodeId>(a % base);
      a /= base;
    }
    return images;
  };
  auto candidate_at = [&](std::uint64_t a) {
    return propagate_cover(h, g, components, images_for(a));
  };

  // Liveness over the anchor-assignment space; progress counts
  // candidates evaluated (timing-dependent under the speculative
  // parallel scan), not deterministic work.
  obs::ProgressTask progress("cover.anchors", space);
  const auto hit =
      ParallelVisitor(pool).find_first(0, space, [&](std::uint64_t a) {
        progress.tick();
        return candidate_at(a).has_value();
      });
  if (!hit) return std::nullopt;
  return candidate_at(*hit);
}

namespace {

std::vector<int> checked_permutation(const Voltage& sigma, NodeId u, NodeId v,
                                     int k) {
  std::vector<int> pi = sigma(u, v);
  if (static_cast<int>(pi.size()) != k) {
    throw std::invalid_argument("voltage_lift: voltage of wrong size");
  }
  std::vector<bool> seen(static_cast<std::size_t>(k), false);
  for (int x : pi) {
    if (x < 0 || x >= k || seen[x]) {
      throw std::invalid_argument("voltage_lift: voltage not a permutation");
    }
    seen[x] = true;
  }
  return pi;
}

}  // namespace

Lift voltage_lift(const PortNumbering& p, int k, const Voltage& sigma) {
  if (k < 1) throw std::invalid_argument("voltage_lift: k >= 1 required");
  const Graph& g = p.graph();
  const int n = g.num_nodes();
  auto idx = [n](NodeId v, int layer) { return layer * n + v; };

  Graph lifted(n * k);
  for (const Edge& e : g.edges()) {
    const std::vector<int> pi = checked_permutation(sigma, e.u, e.v, k);
    for (int c = 0; c < k; ++c) {
      lifted.add_edge(idx(e.u, c), idx(e.v, pi[c]));
    }
  }

  // Port numbering of the lift: copy the base ports along the projection.
  std::vector<std::vector<int>> out(static_cast<std::size_t>(n * k));
  std::vector<std::vector<int>> in(static_cast<std::size_t>(n * k));
  for (NodeId w = 0; w < lifted.num_nodes(); ++w) {
    const NodeId base = w % n;
    out[w].reserve(static_cast<std::size_t>(lifted.degree(w)));
    in[w].reserve(static_cast<std::size_t>(lifted.degree(w)));
    for (NodeId w2 : lifted.neighbours(w)) {
      const NodeId base2 = w2 % n;
      out[w].push_back(p.out_port(base, base2));
      in[w].push_back(p.in_port(base, base2));
    }
  }
  Lift lift;
  lift.numbering = PortNumbering::from_permutations(lifted, std::move(out),
                                                    std::move(in));
  lift.projection.resize(static_cast<std::size_t>(n * k));
  for (NodeId w = 0; w < n * k; ++w) lift.projection[w] = w % n;
  return lift;
}

Lift disjoint_copies(const PortNumbering& p, int k) {
  std::vector<int> identity(static_cast<std::size_t>(k));
  std::iota(identity.begin(), identity.end(), 0);
  return voltage_lift(p, k, [&identity](NodeId, NodeId) { return identity; });
}

Lift double_cover_lift(const PortNumbering& p) {
  return voltage_lift(p, 2, [](NodeId, NodeId) {
    return std::vector<int>{1, 0};
  });
}

Lift random_voltage_lift(const PortNumbering& p, int k, Rng& rng) {
  return voltage_lift(p, k, [k, &rng](NodeId, NodeId) {
    std::vector<int> pi(static_cast<std::size_t>(k));
    std::iota(pi.begin(), pi.end(), 0);
    rng.shuffle(pi);
    return pi;
  });
}

}  // namespace wm
