// Property-test harness for the canonical-form subsystem.
//
// The canonical tests are metamorphic: generate a structure, generate a
// random relabelling, and require the canonical certificate to be
// byte-identical (plus exact-witness checks on the labellings and
// discovered automorphisms). This header provides the seeded generators
// and the relabelling / verification helpers shared by test_canonical*,
// the quotient metamorphic tests and the slow n=7 sweeps.
//
// Seeds: cases iterate base seeds × per-seed case counts. Setting the
// WM_SEED environment variable narrows the run to that single base seed
// (same convention as tests/support/diff_harness.hpp); failure messages
// print the base seed and case index, so
// `WM_SEED=<n> ctest -R canonical` reproduces a reported failure.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/canonical.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "logic/kripke.hpp"
#include "oracles.hpp"
#include "port/port_numbering.hpp"
#include "util/rng.hpp"

namespace wm::canontest {

/// Base seeds for the metamorphic sweeps; WM_SEED=<n> narrows to one.
inline std::vector<std::uint64_t> seeds_under_test() {
  if (const char* env = std::getenv("WM_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {1, 7, 13, 42, 2012};
}

/// Uniform random permutation of 0..n-1.
inline std::vector<int> random_permutation(int n, Rng& rng) {
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(perm);
  return perm;
}

/// The Kripke model with states renamed v -> perm[v] (same signature).
inline KripkeModel relabelled_model(const KripkeModel& k,
                                    const std::vector<int>& perm) {
  std::vector<KripkeEdge> edges = k.edges();
  for (KripkeEdge& e : edges) {
    e.from = perm[e.from];
    e.to = perm[e.to];
  }
  KripkeModel m = KripkeModel::from_edges(k.num_states(), k.num_props(), edges,
                                          k.modalities());
  for (int q = 1; q <= k.num_props(); ++q) {
    for (int v = 0; v < k.num_states(); ++v) {
      if (k.prop_holds(q, v)) m.set_prop(q, perm[v]);
    }
  }
  return m;
}

/// The port numbering carried along g.relabelled(perm): node perm[v]
/// keeps v's out/in port assignment towards each (renamed) neighbour.
inline PortNumbering relabelled_numbering(const PortNumbering& p,
                                          const std::vector<NodeId>& perm) {
  const Graph& g = p.graph();
  const int n = g.num_nodes();
  const Graph h = g.relabelled(perm);
  std::vector<NodeId> inv(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) inv[perm[v]] = v;
  std::vector<std::vector<int>> out(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> in(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const NodeId nv = perm[v];
    const auto& nbs = h.neighbours(nv);
    out[nv].resize(nbs.size());
    in[nv].resize(nbs.size());
    for (std::size_t r = 0; r < nbs.size(); ++r) {
      const NodeId u = inv[nbs[r]];
      out[nv][r] = p.out_port(v, u);
      in[nv][r] = p.in_port(v, u);
    }
  }
  return PortNumbering::from_permutations(h, std::move(out), std::move(in));
}

/// Exact automorphism check at the RelationalStructure level — works for
/// all three reduction kinds via structure_of.
inline bool is_structure_automorphism(const RelationalStructure& s,
                                      const std::vector<int>& a) {
  const int n = s.n;
  if (static_cast<int>(a.size()) != n) return false;
  std::vector<bool> hit(static_cast<std::size_t>(n), false);
  for (int v = 0; v < n; ++v) {
    if (a[v] < 0 || a[v] >= n || hit[a[v]]) return false;
    hit[a[v]] = true;
    if (s.colour[a[v]] != s.colour[v]) return false;
  }
  for (std::size_t r = 0; r < s.out.size(); ++r) {
    std::vector<std::pair<int, int>> orig, image;
    for (int v = 0; v < n; ++v) {
      for (int w : s.out[r][v]) {
        orig.emplace_back(v, w);
        image.emplace_back(a[v], a[w]);
      }
    }
    std::sort(orig.begin(), orig.end());
    std::sort(image.begin(), image.end());
    if (orig != image) return false;
  }
  return true;
}

/// Brute-force |Aut(g)| by scanning all n! node maps. n <= 8 only.
inline std::uint64_t automorphism_count(const Graph& g) {
  const int n = g.num_nodes();
  std::vector<NodeId> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::uint64_t count = 0;
  do {
    if (is_isomorphism(g, g, perm)) ++count;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return count;
}

/// A seeded random Kripke model: the `variant` view of a random port
/// numbering (consistent or general, seed-dependent) of a small random
/// connected graph — the same population the quotient search scans.
inline KripkeModel random_kripke_model(Rng& rng) {
  const int n = 3 + static_cast<int>(rng.below(4));  // 3..6 nodes
  const int extra = static_cast<int>(rng.below(3));
  const Graph g = random_connected_graph(n, /*max_deg=*/3, extra, rng);
  const PortNumbering p = rng.chance(1, 2)
                              ? PortNumbering::random(g, rng)
                              : PortNumbering::random_consistent(g, rng);
  static const Variant variants[] = {Variant::PlusPlus, Variant::MinusPlus,
                                     Variant::PlusMinus, Variant::MinusMinus};
  return kripke_from_graph(p, variants[rng.below(4)]);
}

/// A seeded multigraph Kripke model: `relations` registered modalities
/// (1, 1), (1, 2), ..., `edges` edges drawn uniformly (so parallel edges
/// and self-loops occur), each prop holding with probability 1/2.
inline KripkeModel random_multigraph_model(Rng& rng, int n, int relations,
                                           int edges, int props) {
  KripkeModel k(n, props);
  for (int a = 1; a <= relations; ++a) k.ensure_relation({1, a});
  for (int e = 0; n > 0 && relations > 0 && e < edges; ++e) {
    const int a = 1 + static_cast<int>(rng.below(relations));
    const int from = static_cast<int>(rng.below(n));
    const int to = static_cast<int>(rng.below(n));
    k.add_edge({1, a}, from, to);
  }
  for (int q = 1; q <= props; ++q) {
    for (int v = 0; v < n; ++v) {
      if (rng.chance(1, 2)) k.set_prop(q, v);
    }
  }
  return k;
}

}  // namespace wm::canontest
