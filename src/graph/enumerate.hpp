// Exhaustive enumeration of small graphs.
//
// The paper's theorems quantify over *all* graphs (and all port
// numberings). The executable analogue checks small scopes exhaustively:
// this module streams every simple graph on n nodes (optionally connected,
// degree-bounded), and the separation benches search these for witnesses.
//
// Candidates are the 2^(n choose 2) edge masks of K_n, so every entry
// point throws std::invalid_argument for n outside [0, 11]: at n = 12 the
// mask space no longer fits in 64 bits.
//
// Both enumerators return the number of graphs actually passed to `fn`
// (including the one on which fn returned false, if any) — never the
// number of candidate edge sets.
#pragma once

#include <cstdint>
#include <functional>

#include "graph/graph.hpp"
#include "store/census.hpp"

namespace wm {

class ThreadPool;

struct EnumerateOptions {
  bool connected_only = true;
  int max_degree = -1;      // -1 = unbounded
};

/// Calls `fn` for every simple graph on n labelled nodes matching the
/// options, in increasing edge-mask order. Stops early if fn returns
/// false. Returns the number of graphs passed to fn. Intended for n <= 7
/// (2^21 candidate edge sets).
std::size_t enumerate_graphs(int n, const EnumerateOptions& opts,
                             const std::function<bool(const Graph&)>& fn);

/// Exact iso-free generation: visits exactly one representative per
/// isomorphism class (the graph with the lowest edge mask), deduplicated
/// by the complete canonical-form key of graph/canonical.hpp. The key is
/// exact, so the counts match OEIS A000088 / A001349: the executable
/// form of the paper's "all graphs in F(Delta)" quantification.
///
/// With a pool, canonicalisation runs on it (ParallelVisitor::
/// dedup_stream keeps the minimum edge mask per certificate), then the
/// representatives replay to `fn` sequentially in increasing mask order,
/// so `fn` sees the same graphs in the same order at any thread count;
/// an early stop then halts the replay only. For a bounded-memory, resumable scan of the
/// same space use graph_census_space with store::run_census.
std::size_t enumerate_graphs_modulo_iso(
    int n, const EnumerateOptions& opts,
    const std::function<bool(const Graph&)>& fn, ThreadPool* pool = nullptr);

/// The edge-mask space of (n, opts) as a streaming census space for
/// store::run_census: count = 2^(n choose 2), classify(mask) = the
/// canonical certificate when the mask's graph is admissible, nullopt
/// otherwise. classify is pure and thread-safe. The kind tag
/// ("graph-all-n6", "graph-conn-n6", "-dmax<k>" when degree-bounded)
/// differs between option sets, so resuming a census with changed
/// options is a structured error instead of a silently mixed store.
store::CensusSpace graph_census_space(int n, const EnumerateOptions& opts);

}  // namespace wm
