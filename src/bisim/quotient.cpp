#include "bisim/quotient.hpp"

#include <set>
#include <utility>

#include "graph/canonical.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/visitor.hpp"

namespace wm {

KripkeModel quotient_model(const KripkeModel& k, const Partition& p) {
  WM_COUNT(quotient.minimisations);
  KripkeModel q(p.num_blocks, k.num_props());
  const auto blocks = p.blocks();
  for (const Modality& alpha : k.modalities()) {
    q.ensure_relation(alpha);
    std::set<std::pair<int, int>> added;
    for (int v = 0; v < k.num_states(); ++v) {
      for (int w : k.successors(alpha, v)) {
        const std::pair<int, int> e{p.block[v], p.block[w]};
        if (added.insert(e).second) q.add_edge(alpha, e.first, e.second);
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

KripkeModel minimise(const KripkeModel& k) {
  return quotient_model(k, coarsest_bisimulation(k));
}

KripkeModel graded_quotient_model(const KripkeModel& k, const Partition& p) {
  WM_COUNT(quotient.minimisations);
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

KripkeModel minimise_graded(const KripkeModel& k) {
  return graded_quotient_model(k, coarsest_graded_bisimulation(k));
}

std::string model_fingerprint(const KripkeModel& k) {
  // The complete key: individualisation–refinement canonical form.
  // Isomorphic models — however symmetric — get byte-identical
  // fingerprints, so dedup tables keyed on this count isomorphism
  // classes exactly.
  return canonical_certificate(k);
}

QuotientSearchResult search_distinct_quotients(
    std::uint64_t count,
    const std::function<KripkeModel(std::uint64_t)>& build, bool graded,
    ThreadPool* pool) {
  auto minimise_at = [&](std::uint64_t i) {
    const KripkeModel k = build(i);
    return graded ? minimise_graded(k) : minimise(k);
  };

  WM_TRACE_SCOPE("quotient.search");
  WM_TIME_SCOPE("quotient.search");
  WM_COUNT(quotient.searches);
  WM_COUNT_ADD(quotient.scanned, count);
  obs::ProgressTask progress("quotient.search", count);
  QuotientSearchResult result;
  result.scanned = count;
  // Pass 1: canonical fingerprint -> lowest input index. The visitor
  // drives per-candidate minimisation AND canonicalisation; the per-key
  // minimum is a pure function of the scanned family, independent of
  // thread timing — the same dedup_scan contract the enumerations use.
  // The key is complete, so each class is one isomorphism class.
  ParallelVisitor visitor(pool);
  visitor.dedup_scan<std::string>(
      count,
      [&](std::uint64_t i, auto&& emit) {
        emit(model_fingerprint(minimise_at(i)));
        progress.tick();
      },
      [&](std::uint64_t rep) {
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
