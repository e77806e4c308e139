#include "graph/enumerate.hpp"

#include <stdexcept>
#include <string>

#include "graph/canonical.hpp"
#include "graph/properties.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/progress.hpp"
#include "util/visitor.hpp"

namespace wm {

namespace {

bool admissible(const Graph& g, const EnumerateOptions& opts) {
  if (opts.max_degree >= 0 && g.max_degree() > opts.max_degree) return false;
  if (opts.connected_only && !is_connected(g)) return false;
  return true;
}

/// The edges of K_n in mask-bit order. Rejects n before any mask
/// arithmetic: 2^(n choose 2) fits in 64 bits only up to n = 11.
std::vector<Edge> all_possible_edges(int n) {
  if (n < 0 || n > 11) {
    throw std::invalid_argument("graph enumeration: n = " + std::to_string(n) +
                                " is outside [0, 11]");
  }
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

std::string graph_census_kind(int n, const EnumerateOptions& opts) {
  std::string kind = opts.connected_only ? "graph-conn-n" : "graph-all-n";
  kind += std::to_string(n);
  if (opts.max_degree >= 0) kind += "-dmax" + std::to_string(opts.max_degree);
  return kind;
}

}  // namespace

std::size_t enumerate_graphs(int n, const EnumerateOptions& opts,
                             const std::function<bool(const Graph&)>& fn) {
  const std::vector<Edge> all_edges = all_possible_edges(n);
  const std::size_t m = all_edges.size();
  WM_SCOPE("enumerate.scan");
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
    const std::function<bool(const Graph&)>& fn, ThreadPool* pool) {
  const std::vector<Edge> all_edges = all_possible_edges(n);
  const std::uint64_t space = 1ULL << all_edges.size();
  WM_SCOPE("enumerate.scan");
  obs::ProgressTask progress("enumerate.scan", space);
  // The per-key minimum is a pure function of the scanned family, so the
  // pooled scan streams the sequential first-seen representatives
  // exactly (DESIGN.md).
  return ParallelVisitor(pool).dedup_stream<std::string>(
      0, space,
      [&](std::uint64_t mask, auto&& emit) {
        progress.tick();
        const Graph g = graph_from_mask(n, all_edges, mask);
        if (!admissible(g, opts)) return;
        WM_COUNT(enumerate.graphs);
        emit(canonical_certificate(g));
      },
      [&](const std::string&, std::uint64_t rep) {
        WM_COUNT(enumerate.emitted);
        return fn(graph_from_mask(n, all_edges, rep));
      });
}

store::CensusSpace graph_census_space(int n, const EnumerateOptions& opts) {
  const std::vector<Edge> all_edges = all_possible_edges(n);
  store::CensusSpace space;
  space.kind = graph_census_kind(n, opts);
  space.count = 1ULL << all_edges.size();
  space.classify = [n, opts, all_edges](std::uint64_t mask)
      -> std::optional<std::string> {
    const Graph g = graph_from_mask(n, all_edges, mask);
    if (!admissible(g, opts)) return std::nullopt;
    return canonical_certificate(g);
  };
  return space;
}

}  // namespace wm
