#include "bisim/quotient.hpp"

#include <algorithm>
#include <utility>

#include "graph/canonical.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/progress.hpp"
#include "util/parallel.hpp"
#include "util/visitor.hpp"

namespace wm {

namespace {

/// The first member of each block: the state whose valuation and (for
/// the graded quotient) successors speak for the block.
std::vector<int> first_members(const Partition& p) {
  std::vector<int> rep(static_cast<std::size_t>(p.num_blocks), -1);
  for (int v = static_cast<int>(p.block.size()) - 1; v >= 0; --v) {
    rep[p.block[v]] = v;
  }
  return rep;
}

void copy_valuation(const KripkeModel& k, const std::vector<int>& rep,
                    KripkeModel& q) {
  for (int b = 0; b < static_cast<int>(rep.size()); ++b) {
    if (rep[b] < 0) continue;
    for (int prop = 1; prop <= k.num_props(); ++prop) {
      if (k.prop_holds(prop, rep[b])) q.set_prop(prop, b);
    }
  }
}

}  // namespace

KripkeModel quotient_model(const KripkeModel& k, const Partition& p) {
  WM_COUNT(quotient.minimisations);
  // One edge per distinct (modality, block, block) triple.
  std::vector<KripkeEdge> edges = k.edges();
  for (KripkeEdge& e : edges) {
    e.from = p.block[e.from];
    e.to = p.block[e.to];
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  KripkeModel q = KripkeModel::from_edges(p.num_blocks, k.num_props(), edges,
                                          k.modalities());
  copy_valuation(k, first_members(p), q);
  return q;
}

KripkeModel minimise(const KripkeModel& k) {
  return quotient_model(k, coarsest_bisimulation(k));
}

KripkeModel graded_quotient_model(const KripkeModel& k, const Partition& p) {
  WM_COUNT(quotient.minimisations);
  const std::vector<int> rep = first_members(p);
  // Block b's edges are its first member's, each target mapped to its
  // block; the build sorts every row.
  std::vector<KripkeEdge> edges;
  for (const KripkeEdge& e : k.edges()) {
    const int b = p.block[e.from];
    if (rep[b] == e.from) edges.push_back({e.alpha, b, p.block[e.to]});
  }
  KripkeModel q = KripkeModel::from_edges(p.num_blocks, k.num_props(), edges,
                                          k.modalities());
  copy_valuation(k, rep, q);
  return q;
}

KripkeModel minimise_graded(const KripkeModel& k) {
  return graded_quotient_model(k, coarsest_graded_bisimulation(k));
}

QuotientSearchResult search_distinct_quotients(
    std::uint64_t count,
    const std::function<KripkeModel(std::uint64_t)>& build, bool graded,
    ThreadPool* pool) {
  auto minimise_at = [&](std::uint64_t i) {
    const KripkeModel k = build(i);
    return graded ? minimise_graded(k) : minimise(k);
  };

  WM_SCOPE("quotient.search");
  WM_COUNT(quotient.searches);
  WM_COUNT_ADD(quotient.scanned, count);
  obs::ProgressTask progress("quotient.search", count);
  QuotientSearchResult result;
  result.scanned = count;
  // Pass 1: canonical certificate -> lowest input index. The visitor
  // drives per-candidate minimisation AND canonicalisation; the per-key
  // minimum is a pure function of the scanned family, independent of
  // thread timing — the same dedup_stream contract the enumerator uses.
  // The key is complete, so each class is one isomorphism class.
  const ParallelVisitor visitor(pool);
  visitor.dedup_stream<std::string>(
      0, count,
      [&](std::uint64_t i, auto&& emit) {
        emit(canonical_certificate(minimise_at(i)));
        progress.tick();
      },
      [&](const std::string&, std::uint64_t rep) {
        result.representatives.push_back(rep);
        return true;
      });
  // Pass 2 (order-preserving slots): rebuild the surviving
  // representatives' minimal models.
  result.models.assign(result.representatives.size(), KripkeModel(0, 0));
  visitor.for_each(result.representatives.size(), [&](std::uint64_t j) {
    result.models[j] = minimise_at(result.representatives[j]);
  });
  WM_COUNT_ADD(quotient.classes, result.representatives.size());
  return result;
}

}  // namespace wm
