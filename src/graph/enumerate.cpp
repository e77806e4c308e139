#include "graph/enumerate.hpp"

#include <algorithm>
#include <atomic>

#include "graph/canonical.hpp"
#include "graph/properties.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/visitor.hpp"

namespace wm {

namespace {

bool admissible(const Graph& g, const EnumerateOptions& opts) {
  if (opts.max_degree >= 0 && g.max_degree() > opts.max_degree) return false;
  if (g.min_degree() < opts.min_degree) return false;
  if (opts.connected_only && !is_connected(g)) return false;
  return true;
}

std::vector<Edge> all_possible_edges(int n) {
  std::vector<Edge> all_edges;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) all_edges.push_back({u, v});
  }
  return all_edges;
}

Graph graph_from_mask(int n, const std::vector<Edge>& all_edges,
                      std::uint64_t mask) {
  Graph g(n);
  for (std::size_t i = 0; i < all_edges.size(); ++i) {
    if (mask & (1ULL << i)) g.add_edge(all_edges[i].u, all_edges[i].v);
  }
  return g;
}

/// The one modulo-iso enumeration body behind the sequential and pooled
/// variants: a dedup_scan over the edge-mask space keyed by the canonical
/// certificate, streaming the lowest-mask representative of each class
/// in mask order. The per-key minimum is a pure function of the scanned
/// family, so the pooled variant matches the sequential first-seen
/// representatives exactly (DESIGN.md).
std::size_t enumerate_modulo(int n, const EnumerateOptions& opts,
                             ThreadPool* pool,
                             const std::function<bool(const Graph&)>& fn) {
  WM_TIME_SCOPE("enumerate.scan");
  const std::vector<Edge> all_edges = all_possible_edges(n);
  const std::size_t m = all_edges.size();
  obs::ProgressTask progress("enumerate.scan", 1ULL << m);
  ParallelVisitor visitor(pool);
  return visitor.dedup_scan<std::string>(
      1ULL << m,
      [&](std::uint64_t mask, auto&& emit) {
        progress.tick();
        const Graph g = graph_from_mask(n, all_edges, mask);
        if (!admissible(g, opts)) return;
        WM_COUNT(enumerate.graphs);
        emit(canonical_certificate(g));
      },
      [&](std::uint64_t rep) {
        WM_COUNT(enumerate.emitted);
        return fn(graph_from_mask(n, all_edges, rep));
      });
}

}  // namespace

std::size_t enumerate_graphs(int n, const EnumerateOptions& opts,
                             const std::function<bool(const Graph&)>& fn) {
  const std::vector<Edge> all_edges = all_possible_edges(n);
  const std::size_t m = all_edges.size();
  WM_TIME_SCOPE("enumerate.scan");
  obs::ProgressTask progress("enumerate.scan", 1ULL << m);
  std::size_t visited = 0;
  for (std::uint64_t mask = 0; mask < (1ULL << m); ++mask) {
    progress.tick();
    const Graph g = graph_from_mask(n, all_edges, mask);
    if (!admissible(g, opts)) continue;
    WM_COUNT(enumerate.graphs);
    ++visited;
    if (!fn(g)) break;
  }
  return visited;
}

std::size_t enumerate_graphs_modulo_iso(
    int n, const EnumerateOptions& opts,
    const std::function<bool(const Graph&)>& fn) {
  return enumerate_modulo(n, opts, /*pool=*/nullptr, fn);
}

std::size_t enumerate_graphs_modulo_iso_parallel(
    int n, const EnumerateOptions& opts, ThreadPool& pool,
    const std::function<bool(const Graph&)>& fn) {
  WM_TRACE_SCOPE("enumerate.modulo_iso");
  // Canonical certificates are a complete isomorphism key, so the
  // surviving set is exactly one graph per isomorphism class.
  return enumerate_modulo(n, opts, &pool, fn);
}

std::string graph_census_kind(int n, const EnumerateOptions& opts) {
  std::string kind = opts.connected_only ? "graph-conn-n" : "graph-all-n";
  kind += std::to_string(n);
  if (opts.min_degree > 0) kind += "-dmin" + std::to_string(opts.min_degree);
  if (opts.max_degree >= 0) kind += "-dmax" + std::to_string(opts.max_degree);
  return kind;
}

store::CensusSpace graph_census_space(int n, const EnumerateOptions& opts) {
  store::CensusSpace space;
  space.kind = graph_census_kind(n, opts);
  const std::vector<Edge> all_edges = all_possible_edges(n);
  space.count = 1ULL << all_edges.size();
  space.classify = [n, opts, all_edges](std::uint64_t mask)
      -> std::optional<std::string> {
    const Graph g = graph_from_mask(n, all_edges, mask);
    if (!admissible(g, opts)) return std::nullopt;
    return canonical_certificate(g);
  };
  return space;
}

Graph graph_from_census_index(int n, std::uint64_t mask) {
  return graph_from_mask(n, all_possible_edges(n), mask);
}

std::size_t enumerate_graphs_modulo_iso_stream(
    int n, const EnumerateOptions& opts, ThreadPool* pool,
    std::uint64_t batch,
    const std::function<bool(const std::string&, std::uint64_t)>& sink,
    const std::function<bool(const Graph&)>& fn) {
  WM_TIME_SCOPE("enumerate.scan");
  const std::vector<Edge> all_edges = all_possible_edges(n);
  const std::size_t m = all_edges.size();
  const std::uint64_t space = 1ULL << m;
  if (batch == 0) batch = space;
  obs::ProgressTask progress("enumerate.scan", space);
  ParallelVisitor visitor(pool);
  std::size_t streamed = 0;
  bool stop = false;
  for (std::uint64_t lo = 0; lo < space && !stop; lo += batch) {
    const std::uint64_t hi = std::min(space, lo + batch);
    visitor.dedup_stream<std::string>(
        lo, hi,
        [&](std::uint64_t mask, auto&& emit) {
          progress.tick();
          const Graph g = graph_from_mask(n, all_edges, mask);
          if (!admissible(g, opts)) return;
          WM_COUNT(enumerate.graphs);
          emit(canonical_certificate(g));
        },
        [&](const std::string& key, std::uint64_t rep) {
          if (!sink(key, rep)) return true;  // cross-batch duplicate
          WM_COUNT(enumerate.emitted);
          ++streamed;
          if (!fn(graph_from_mask(n, all_edges, rep))) stop = true;
          return !stop;
        });
  }
  return streamed;
}

std::size_t enumerate_graphs_parallel(
    int n, const EnumerateOptions& opts, ThreadPool& pool,
    const std::function<bool(const Graph&, int worker)>& fn) {
  const std::vector<Edge> all_edges = all_possible_edges(n);
  const std::size_t m = all_edges.size();
  WM_TIME_SCOPE("enumerate.scan");
  obs::ProgressTask progress("enumerate.scan", 1ULL << m);
  std::atomic<std::size_t> visited{0};
  // No work counters here: fn can cancel mid-scan, so the set of masks
  // actually visited is timing-dependent (unlike the modulo variants,
  // whose pass 1 always scans the full range).
  // Prefix chunks: each chunk is a contiguous mask range, i.e. all
  // completions of one high-bit prefix of the edge set.
  pool.parallel_chunks_until(
      0, 1ULL << m,
      [&](std::uint64_t lo, std::uint64_t hi, int worker) {
        for (std::uint64_t mask = lo; mask < hi; ++mask) {
          const Graph g = graph_from_mask(n, all_edges, mask);
          if (!admissible(g, opts)) continue;
          visited.fetch_add(1, std::memory_order_relaxed);
          if (!fn(g, worker)) return false;
        }
        progress.tick(hi - lo);
        return true;
      });
  return visited.load();
}

}  // namespace wm
