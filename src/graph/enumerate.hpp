// Exhaustive enumeration of small graphs.
//
// The paper's theorems quantify over *all* graphs (and all port
// numberings). The executable analogue checks small scopes exhaustively:
// this module streams every simple graph on n nodes (optionally connected,
// degree-bounded), and the separation benches search these for witnesses.
//
// All variants return the number of graphs actually passed to `fn`
// (including the one on which fn returned false, if any) — never the
// number of candidate edge sets.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "store/census.hpp"

namespace wm {

class ThreadPool;

struct EnumerateOptions {
  bool connected_only = true;
  int max_degree = -1;      // -1 = unbounded
  int min_degree = 0;
};

/// Calls `fn` for every simple graph on n labelled nodes matching the
/// options, in increasing edge-mask order. Stops early if fn returns
/// false. Returns the number of graphs passed to fn. Intended for n <= 7
/// (2^21 candidate edge sets).
std::size_t enumerate_graphs(int n, const EnumerateOptions& opts,
                             const std::function<bool(const Graph&)>& fn);

/// Parallel enumeration over `pool`: partitions the edge-set space into
/// prefix chunks and streams the admissible graphs to per-thread
/// consumers — fn(g, worker) with worker in [0, pool.num_threads()),
/// stable per executing thread for the duration of the call, so consumers
/// can keep per-thread scratch without locking. Within one worker graphs
/// arrive in increasing edge-mask order; across workers the interleaving
/// is unspecified. If any consumer returns false, chunks not yet claimed
/// are cancelled (in-flight chunks finish), so with more than one thread
/// the return value may exceed the sequential early-stop count. With
/// pool.num_threads() == 1 this is exactly enumerate_graphs.
std::size_t enumerate_graphs_parallel(
    int n, const EnumerateOptions& opts, ThreadPool& pool,
    const std::function<bool(const Graph&, int worker)>& fn);

/// Exact iso-free generation: visits exactly one representative per
/// isomorphism class (the graph with the lowest edge mask), deduplicated
/// by the complete canonical-form key of graph/canonical.hpp. The key is
/// exact, so the counts match OEIS A000088 / A001349: the executable
/// form of the paper's "all graphs in F(Delta)" quantification.
std::size_t enumerate_graphs_modulo_iso(
    int n, const EnumerateOptions& opts,
    const std::function<bool(const Graph&)>& fn);

/// Deterministic parallel variant: per-candidate canonicalisation runs
/// on the pool into a lock-free certificate -> minimum-edge-mask table
/// (the lowest-witness contract), then the surviving representatives —
/// the same graphs the sequential variant picks — replay to `fn`
/// sequentially in increasing mask order. Byte-identical at any thread
/// count; early stop halts the replay only.
std::size_t enumerate_graphs_modulo_iso_parallel(
    int n, const EnumerateOptions& opts, ThreadPool& pool,
    const std::function<bool(const Graph&)>& fn);

/// The store/checkpoint kind tag for the census of (n, opts):
/// "graph-all-n6", "graph-conn-n6", with "-dmin<k>"/"-dmax<k>" suffixes
/// when degree bounds are set. Distinct option sets get distinct tags,
/// so resuming a census with changed options is a structured error
/// instead of a silently mixed store.
std::string graph_census_kind(int n, const EnumerateOptions& opts);

/// The edge-mask space of (n, opts) as a streaming census space for
/// store::run_census: count = 2^(n choose 2), classify(mask) = the
/// canonical certificate when the mask's graph is admissible, nullopt
/// otherwise. classify is pure and thread-safe.
store::CensusSpace graph_census_space(int n, const EnumerateOptions& opts);

/// Materialises the graph a census representative index denotes (the
/// inverse of graph_census_space's indexing).
Graph graph_from_census_index(int n, std::uint64_t mask);

/// Streaming sibling of enumerate_graphs_modulo_iso: scans the mask
/// space in fixed `batch`-sized frontiers through dedup_stream, so peak
/// memory is bounded by the batch's class count instead of the whole
/// family's. Within-batch duplicates are dropped here; cross-batch dedup
/// is delegated to `sink(cert, mask)`, which returns true iff the
/// certificate is globally fresh (e.g. CertStore::insert_fresh, or an
/// in-memory set in tests). Fresh representatives are materialised and
/// streamed to `fn` in increasing mask order; fn returning false stops
/// the whole scan at the next batch boundary. Returns the number of
/// graphs passed to fn. With a set-backed sink this visits exactly the
/// graphs enumerate_graphs_modulo_iso visits, in the same order, at any
/// thread count and any batch size.
std::size_t enumerate_graphs_modulo_iso_stream(
    int n, const EnumerateOptions& opts, ThreadPool* pool,
    std::uint64_t batch,
    const std::function<bool(const std::string&, std::uint64_t)>& sink,
    const std::function<bool(const Graph&)>& fn);

}  // namespace wm
