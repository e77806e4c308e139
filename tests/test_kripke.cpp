#include "logic/kripke.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/canonical.hpp"
#include "graph/enumerate.hpp"
#include "graph/generators.hpp"
#include "logic/model_checker.hpp"
#include "logic/random_formula.hpp"
#include "support/diff_harness.hpp"
#include "support/oracles.hpp"
#include "util/rng.hpp"

namespace wm {
namespace {

std::vector<int> succ(const KripkeModel& k, const Modality& alpha, int state) {
  const std::span<const int> s = k.successors(alpha, state);
  return {s.begin(), s.end()};
}

TEST(Kripke, BasicModelOps) {
  KripkeModel k(3, 2);
  k.add_edge({0, 0}, 0, 1);
  k.add_edge({0, 0}, 0, 2);
  k.set_prop(1, 0);
  EXPECT_TRUE(k.prop_holds(1, 0));
  EXPECT_FALSE(k.prop_holds(1, 1));
  EXPECT_EQ(succ(k, {0, 0}, 0), (std::vector<int>{1, 2}));
  EXPECT_TRUE(k.successors({0, 0}, 1).empty());
  EXPECT_TRUE(k.successors({1, 1}, 0).empty());  // unregistered relation
}

TEST(Kripke, FromGraphMinusMinusIsSymmetricEdgeRelation) {
  const Graph g = path_graph(3);
  const PortNumbering p = PortNumbering::identity(g);
  const KripkeModel k = kripke_from_graph(p, Variant::MinusMinus);
  // R(*,*) interpreted as a symmetric relation = E.
  EXPECT_EQ(succ(k, {0, 0}, 0), (std::vector<int>{1}));
  EXPECT_EQ(succ(k, {0, 0}, 1), (std::vector<int>{0, 2}));
  EXPECT_EQ(succ(k, {0, 0}, 2), (std::vector<int>{1}));
  // Degree propositions.
  EXPECT_TRUE(k.prop_holds(1, 0));
  EXPECT_TRUE(k.prop_holds(2, 1));
  EXPECT_FALSE(k.prop_holds(1, 1));
}

TEST(Kripke, FromGraphPlusPlusRelationDirections) {
  // Path 0-1-2 with identity numbering: node 1's out-port 1 -> node 0's
  // in-port 1, out-port 2 -> node 2's in-port 1.
  const Graph g = path_graph(3);
  const PortNumbering p = PortNumbering::identity(g);
  const KripkeModel k = kripke_from_graph(p, Variant::PlusPlus);
  // R(i,j) = {(u,v) : p((v,j)) = (u,i)} — u hears v.
  // p((1,1)) = (0,1): so (0,1) in R(1,1).
  EXPECT_EQ(succ(k, {1, 1}, 0), (std::vector<int>{1}));
  // p((1,2)) = (2,1): so (2,1) in R(1,2).
  EXPECT_EQ(succ(k, {1, 2}, 2), (std::vector<int>{1}));
  // Node 1 hears node 0 via (1,1) and node 2 via (2,1).
  EXPECT_EQ(succ(k, {1, 1}, 1), (std::vector<int>{0}));
  EXPECT_EQ(succ(k, {2, 1}, 1), (std::vector<int>{2}));
  // Every in-port has exactly one feeding relation entry.
  int total = 0;
  for (const Modality& alpha : k.modalities()) {
    for (int v = 0; v < k.num_states(); ++v) {
      total += static_cast<int>(k.successors(alpha, v).size());
    }
  }
  EXPECT_EQ(total, 2 * g.num_edges());
}

TEST(Kripke, FromGraphSignatureRegistration) {
  const Graph g = cycle_graph(4);
  const PortNumbering p = PortNumbering::identity(g);
  EXPECT_EQ(kripke_from_graph(p, Variant::PlusPlus).modalities().size(), 4u);
  EXPECT_EQ(kripke_from_graph(p, Variant::MinusPlus).modalities().size(), 2u);
  EXPECT_EQ(kripke_from_graph(p, Variant::PlusMinus).modalities().size(), 2u);
  EXPECT_EQ(kripke_from_graph(p, Variant::MinusMinus).modalities().size(), 1u);
}

TEST(Kripke, FromGraphWithLargerDelta) {
  const Graph g = path_graph(2);
  const PortNumbering p = PortNumbering::identity(g);
  const KripkeModel k = kripke_from_graph(p, Variant::PlusPlus, 3);
  EXPECT_EQ(k.num_props(), 3);
  EXPECT_EQ(k.modalities().size(), 9u);
  EXPECT_THROW(kripke_from_graph(p, Variant::PlusPlus, 0), std::invalid_argument);
}

TEST(Kripke, UnionsInMinusPlusView) {
  // Star: all leaves send via their out-port 1 into distinct centre
  // in-ports; in K_{-,+} the centre's R(*,1)-successors are all leaves.
  const Graph g = star_graph(3);
  const PortNumbering p = PortNumbering::identity(g);
  const KripkeModel k = kripke_from_graph(p, Variant::MinusPlus);
  EXPECT_EQ(succ(k, {0, 1}, 0), (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(k.successors({0, 2}, 0).empty());  // leaves have no port 2
}

/// A seeded model description: registered relations (some left empty),
/// edges drawn with repetition (parallel edges, self-loops) over a pool
/// of modalities the relations need not include, and a valuation.
struct Recipe {
  int n = 0;
  int props = 0;
  std::vector<Modality> relations;
  std::vector<KripkeEdge> edges;
  std::vector<std::pair<int, int>> valuation;  // (q, state)
};

Recipe random_recipe(Rng& rng) {
  static const Modality pool[] = {{0, 0}, {1, 0}, {0, 1},
                                  {1, 2}, {2, 1}, {2, 2}};
  Recipe r;
  r.n = static_cast<int>(rng.below(8));
  r.props = static_cast<int>(rng.below(4));
  for (const Modality& alpha : pool) {
    if (rng.chance(1, 3)) r.relations.push_back(alpha);
  }
  for (std::uint64_t e = 0, m = rng.below(3 * r.n + 1); r.n > 0 && e < m; ++e) {
    const KripkeEdge edge{pool[rng.below(6)], static_cast<int>(rng.below(r.n)),
                          static_cast<int>(rng.below(r.n))};
    r.edges.push_back(edge);
    if (rng.chance(1, 4)) r.edges.push_back(edge);
  }
  for (int q = 1; q <= r.props; ++q) {
    for (int v = 0; v < r.n; ++v) {
      if (rng.chance(1, 2)) r.valuation.emplace_back(q, v);
    }
  }
  return r;
}

KripkeModelReference reference_of(const Recipe& r) {
  KripkeModelReference k(r.n, r.props);
  for (const Modality& alpha : r.relations) k.ensure_relation(alpha);
  for (const KripkeEdge& e : r.edges) k.add_edge(e.alpha, e.from, e.to);
  for (const auto& [q, v] : r.valuation) k.set_prop(q, v);
  return k;
}

/// The store built edge by edge: relations registered and edges added in
/// one shuffled sequence.
KripkeModel added_in_shuffled_order(const Recipe& r, Rng& rng) {
  std::vector<int> ops(r.relations.size() + r.edges.size());
  for (std::size_t i = 0; i < ops.size(); ++i) ops[i] = static_cast<int>(i);
  rng.shuffle(ops);
  KripkeModel k(r.n, r.props);
  for (const int i : ops) {
    if (i < static_cast<int>(r.relations.size())) {
      k.ensure_relation(r.relations[i]);
    } else {
      const KripkeEdge& e = r.edges[i - r.relations.size()];
      k.add_edge(e.alpha, e.from, e.to);
    }
  }
  for (const auto& [q, v] : r.valuation) k.set_prop(q, v);
  return k;
}

KripkeModel built_from_edges(const Recipe& r) {
  KripkeModel k = KripkeModel::from_edges(r.n, r.props, r.edges, r.relations);
  for (const auto& [q, v] : r.valuation) k.set_prop(q, v);
  return k;
}

/// The n-ary union must equal a left fold of the binary overload: same
/// relations (to_string lists registered-but-empty ones too), same prop
/// rows, and offsets equal to the fold's state count before each part.
void expect_union_matches_fold(const std::vector<KripkeModel>& parts) {
  std::vector<int> offsets;
  const KripkeModel u = KripkeModel::disjoint_union(parts, &offsets);
  KripkeModel fold(0, 0);
  std::vector<int> fold_offsets;
  for (const KripkeModel& k : parts) {
    fold_offsets.push_back(fold.num_states());
    fold = KripkeModel::disjoint_union(fold, k);
  }
  EXPECT_EQ(u.to_string(), fold.to_string());
  EXPECT_EQ(offsets, fold_offsets);
  ASSERT_EQ(u.num_props(), fold.num_props());
  for (int q = 1; q <= u.num_props(); ++q) {
    EXPECT_EQ(u.prop_bits(q), fold.prop_bits(q)) << "q=" << q;
  }
}

TEST(Kripke, DisjointUnion) {
  const Graph g = path_graph(2);
  const PortNumbering p = PortNumbering::identity(g);
  const KripkeModel a = kripke_from_graph(p, Variant::MinusMinus);
  const KripkeModel u = KripkeModel::disjoint_union(a, a);
  EXPECT_EQ(u.num_states(), 4);
  EXPECT_EQ(succ(u, {0, 0}, 2), (std::vector<int>{3}));
  EXPECT_TRUE(u.prop_holds(1, 2));

  // Empty part list: the empty model, no offsets.
  std::vector<int> offsets = {7};
  const KripkeModel none = KripkeModel::disjoint_union({}, &offsets);
  EXPECT_EQ(none.to_string(), KripkeModel(0, 0).to_string());
  EXPECT_TRUE(offsets.empty());

  // Fixed edge cases: a zero-state part that still registers a modality
  // and carries props, different num_props, disjoint modality sets, and
  // a duplicate (graded) edge.
  KripkeModel zero(0, 3);
  zero.ensure_relation({2, 2});
  KripkeModel graded(2, 1);
  graded.add_edge({1, 0}, 0, 1);
  graded.add_edge({1, 0}, 0, 1);
  graded.set_prop(1, 1);
  const std::vector<KripkeModel> fixed = {graded, zero, a, graded};
  expect_union_matches_fold(fixed);
  const KripkeModel joint = KripkeModel::disjoint_union(fixed);
  EXPECT_EQ(joint.num_props(), 3);
  EXPECT_EQ(succ(joint, {1, 0}, 4), (std::vector<int>{5, 5}));
  EXPECT_TRUE(joint.has_relation({2, 2}));
  EXPECT_TRUE(joint.successors({0, 0}, 0).empty());

  // Seeded differential over random part lists (0..6 parts).
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng rng(seed);
    for (int c = 0; c < 100; ++c) {
      std::vector<KripkeModel> parts(rng.below(7));
      for (KripkeModel& k : parts) {
        k = added_in_shuffled_order(random_recipe(rng), rng);
      }
      SCOPED_TRACE("seed=" + std::to_string(seed) + " case " +
                   std::to_string(c));
      expect_union_matches_fold(parts);
    }
  }
}

TEST(Kripke, IsolatedNodesHaveNoProps) {
  Graph g(2);
  g.add_edge(0, 1);
  Graph h(3);
  h.add_edge(0, 1);  // node 2 isolated
  const KripkeModel k =
      kripke_from_graph(PortNumbering::identity(h), Variant::MinusMinus);
  EXPECT_FALSE(k.prop_holds(1, 2));
  EXPECT_TRUE(k.prop_holds(1, 0));
}

TEST(Kripke, OutOfRangeStatesAreRejected) {
  KripkeModel k(3, 1);
  k.add_edge({1, 1}, 0, 2);
  const std::string before = k.to_string();
  EXPECT_THROW(k.add_edge({1, 1}, -1, 0), std::out_of_range);
  EXPECT_THROW(k.add_edge({1, 1}, 3, 0), std::out_of_range);
  EXPECT_THROW(k.add_edge({1, 1}, 0, -1), std::out_of_range);
  EXPECT_THROW(k.add_edge({2, 2}, 0, 3), std::out_of_range);
  EXPECT_THROW(k.set_prop(1, 3), std::out_of_range);
  EXPECT_THROW(k.set_prop(1, -1), std::out_of_range);
  EXPECT_THROW(k.set_prop(2, 0), std::out_of_range);
  // A refused edge registers nothing.
  EXPECT_EQ(k.to_string(), before);
  EXPECT_FALSE(k.has_relation({2, 2}));

  const std::vector<KripkeEdge> bad_to = {{{1, 1}, 0, 1}, {{1, 1}, 2, 3}};
  EXPECT_THROW(KripkeModel::from_edges(3, 0, bad_to), std::out_of_range);
  const std::vector<KripkeEdge> bad_from = {{{1, 1}, -1, 0}};
  EXPECT_THROW(KripkeModel::from_edges(3, 0, bad_from), std::out_of_range);
  const std::vector<KripkeEdge> any = {{{0, 0}, 0, 0}};
  EXPECT_THROW(KripkeModel::from_edges(0, 0, any), std::out_of_range);
}

// --- The flat store against the map-of-rows reference ------------------------

/// Modalities probed alongside the registered ones; those a model does
/// not register must have empty successor lists.
const Modality kUnregistered[] = {{0, 9}, {3, 3}, {4, 1}, {7, 0}};

/// Every observable of `k` equals the reference's: signature, every
/// successor list (registered and unregistered modalities), the merged
/// predecessors, props, to_string, the canonical certificate and the
/// model checker on seeded random formulas.
void expect_same_model(const KripkeModel& k, const KripkeModelReference& r,
                       Rng& rng) {
  ASSERT_EQ(k.num_states(), r.num_states());
  ASSERT_EQ(k.num_props(), r.num_props());
  const std::vector<Modality> mods = r.modalities();
  ASSERT_EQ(k.modalities(), mods);
  std::vector<Modality> probes = mods;
  probes.insert(probes.end(), std::begin(kUnregistered), std::end(kUnregistered));
  std::sort(probes.begin(), probes.end());
  probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
  std::vector<std::vector<int>> preds(static_cast<std::size_t>(r.num_states()));
  std::size_t edges = 0;
  for (const Modality& alpha : probes) {
    EXPECT_EQ(k.has_relation(alpha),
              std::binary_search(mods.begin(), mods.end(), alpha));
    for (int v = 0; v < r.num_states(); ++v) {
      ASSERT_EQ(succ(k, alpha, v), r.successors(alpha, v))
          << alpha.to_string() << " at " << v;
      for (const int w : r.successors(alpha, v)) preds[w].push_back(v);
      edges += r.successors(alpha, v).size();
    }
  }
  EXPECT_EQ(k.num_edges(), edges);
  for (int w = 0; w < r.num_states(); ++w) {
    std::sort(preds[w].begin(), preds[w].end());
    const std::span<const int> got = k.predecessors(w);
    EXPECT_EQ(std::vector<int>(got.begin(), got.end()), preds[w]) << w;
  }
  for (int q = 1; q <= r.num_props(); ++q) {
    for (int v = 0; v < r.num_states(); ++v) {
      EXPECT_EQ(k.prop_holds(q, v), r.prop_holds(q, v)) << q << "," << v;
    }
  }
  EXPECT_EQ(k.to_string(), r.to_string());
  EXPECT_EQ(canonical_certificate(k),
            canonical_form(structure_of_reference(r)).certificate);
  static const Variant variants[] = {Variant::PlusPlus, Variant::MinusPlus,
                                     Variant::PlusMinus, Variant::MinusMinus};
  for (int i = 0; i < 6; ++i) {
    RandomFormulaOptions opts;
    opts.variant = variants[rng.below(4)];
    opts.num_props = std::max(1, r.num_props());
    opts.graded = rng.chance(1, 2);
    const Formula f = random_formula(rng, opts);
    EXPECT_EQ(model_check(k, f), eval_naive(r, f)) << f.to_string();
  }
}

TEST(KripkeStore, FromGraphMatchesReference) {
  EnumerateOptions opts;
  opts.connected_only = false;
  opts.max_degree = 3;
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng rng(seed);
    for (int n = 1; n <= 4; ++n) {
      enumerate_graphs(n, opts, [&](const Graph& g) {
        std::vector<PortNumbering> numberings = {PortNumbering::identity(g)};
        for (int r = 0; r < 3; ++r) {
          numberings.push_back(PortNumbering::random(g, rng));
        }
        for (const PortNumbering& p : numberings) {
          for (const Variant v : {Variant::PlusPlus, Variant::MinusPlus,
                                  Variant::PlusMinus, Variant::MinusMinus}) {
            for (const int delta : {-1, 3}) {
              SCOPED_TRACE("WM_SEED=" + std::to_string(seed) + " " +
                           p.to_string() + " " + variant_name(v) +
                           " delta " + std::to_string(delta));
              expect_same_model(kripke_from_graph(p, v, delta),
                                kripke_from_graph_reference(p, v, delta), rng);
            }
          }
        }
        return true;
      });
    }
  }
}

TEST(KripkeStore, MultigraphBuildsMatchReference) {
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng rng(seed + 31);
    for (int c = 0; c < 60; ++c) {
      SCOPED_TRACE("WM_SEED=" + std::to_string(seed) + " case " +
                   std::to_string(c));
      const Recipe r = random_recipe(rng);
      const KripkeModelReference ref = reference_of(r);
      expect_same_model(added_in_shuffled_order(r, rng), ref, rng);
      expect_same_model(built_from_edges(r), ref, rng);
      // edges() lists the store, and rebuilds it.
      const KripkeModel k = built_from_edges(r);
      KripkeModel again = KripkeModel::from_edges(r.n, r.props, k.edges(),
                                                  k.modalities());
      for (const auto& [q, v] : r.valuation) again.set_prop(q, v);
      expect_same_model(again, ref, rng);
    }
  }
}

TEST(KripkeStore, UnionsMatchReference) {
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng rng(seed + 57);
    for (int c = 0; c < 40; ++c) {
      SCOPED_TRACE("WM_SEED=" + std::to_string(seed) + " case " +
                   std::to_string(c));
      std::vector<KripkeModel> parts;
      std::vector<KripkeModelReference> refs;
      for (std::uint64_t i = 0, m = rng.below(6); i < m; ++i) {
        const Recipe r = random_recipe(rng);
        parts.push_back(rng.chance(1, 2) ? built_from_edges(r)
                                         : added_in_shuffled_order(r, rng));
        refs.push_back(reference_of(r));
      }
      std::vector<int> offsets = {-1};
      std::vector<int> ref_offsets;
      expect_same_model(KripkeModel::disjoint_union(parts, &offsets),
                        KripkeModelReference::disjoint_union(refs, &ref_offsets),
                        rng);
      EXPECT_EQ(offsets, ref_offsets);
      for (std::size_t i = 1; i < parts.size(); ++i) {
        expect_same_model(
            KripkeModel::disjoint_union(parts[i - 1], parts[i]),
            KripkeModelReference::disjoint_union({refs[i - 1], refs[i]}), rng);
      }
    }
  }
}

}  // namespace
}  // namespace wm
