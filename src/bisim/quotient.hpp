// Quotients of Kripke models by bisimulation equivalences — canonical
// minimal models.
//
// For an (ungraded) bisimulation partition P of K, the quotient K/P has
// the blocks as states, a block satisfying q iff its members do (B1
// guarantees uniformity) and an alpha-edge B -> C iff some member of B
// has an alpha-successor in C (by B2/B3 then every member does, up to
// the block). Every ML/MML formula has the same truth value at v in K
// and at [v] in K/P — property-tested against the model checker.
//
// (The graded analogue needs multiplicity-annotated edges and is not
// provided; graded queries should be evaluated on the original model.)
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "bisim/bisimulation.hpp"
#include "logic/kripke.hpp"

namespace wm {

class ThreadPool;

/// The quotient K / p. Precondition: p is a bisimulation partition of k
/// (e.g. from coarsest_bisimulation) — verified with
/// verify_bisimulation_partition in debug contexts by the caller.
KripkeModel quotient_model(const KripkeModel& k, const Partition& p);

/// Convenience: quotient by the coarsest bisimulation.
KripkeModel minimise(const KripkeModel& k);

/// Graded quotient: like quotient_model, but the alpha-edge B -> C is
/// added with multiplicity = |alpha-successors in C| of any member of B
/// (uniform when p is a GRADED bisimulation partition). Parallel edges
/// make the graded model checker count correctly, so GML/GMML formulas
/// survive the quotient — property-tested.
KripkeModel graded_quotient_model(const KripkeModel& k, const Partition& p);

/// Convenience: graded quotient by the coarsest graded bisimulation.
KripkeModel minimise_graded(const KripkeModel& k);

// --- Quotient search --------------------------------------------------------

struct QuotientSearchResult {
  /// Lowest input index per isomorphism class of minimal models (the
  /// complete canonical_certificate key of graph/canonical.hpp), in
  /// increasing index order — the
  /// representative the sequential scan encounters first.
  std::vector<std::uint64_t> representatives;
  /// The minimised model of each representative, same order.
  std::vector<KripkeModel> models;
  /// Inputs scanned (always `count`; the discovery pass never stops
  /// early).
  std::uint64_t scanned = 0;
};

/// Scans the indexed model family build(i), i in [0, count): minimises
/// each model (graded quotient if `graded`), dedups by the complete
/// canonical_certificate key — so the result counts isomorphism classes of
/// minimal models EXACTLY, not refinement classes — and returns the
/// distinct minimal models, each tagged with the lowest index producing
/// it. This is the search behind the Lemma 14/15 bisimulation
/// separations: "how many genuinely different minimal views does this
/// family of port numberings admit?".
///
/// With a pool, discovery (minimise + canonicalise per candidate) runs
/// in parallel through ParallelVisitor::dedup_stream, keeping the
/// minimum index per certificate (same scan as the iso-free graph
/// enumeration); the per-key minimum is
/// timing-independent, so representatives — and the replayed models —
/// are byte-identical at any thread count. Counts are additionally
/// invariant under relabelling the input models (the key is canonical).
/// build must be safe to call concurrently for distinct indices.
QuotientSearchResult search_distinct_quotients(
    std::uint64_t count,
    const std::function<KripkeModel(std::uint64_t)>& build, bool graded = false,
    ThreadPool* pool = nullptr);

}  // namespace wm
