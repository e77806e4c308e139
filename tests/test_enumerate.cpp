#include "graph/enumerate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/canonical.hpp"
#include "graph/properties.hpp"

namespace wm {
namespace {

TEST(Enumerate, CountsAllGraphsOnThreeNodes) {
  EnumerateOptions opts;
  opts.connected_only = false;
  std::size_t count = 0;
  enumerate_graphs(3, opts, [&](const Graph&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 8u);  // 2^3 edge subsets
}

TEST(Enumerate, CountsConnectedLabelledGraphs) {
  // Known sequence (OEIS A001187): 1, 1, 4, 38, 728 for n = 1, 2, 3, 4, 5.
  const std::size_t expected[] = {1, 1, 4, 38, 728};
  for (int n = 1; n <= 5; ++n) {
    EnumerateOptions opts;
    std::size_t count = 0;
    enumerate_graphs(n, opts, [&](const Graph& g) {
      EXPECT_TRUE(is_connected(g));
      ++count;
      return true;
    });
    EXPECT_EQ(count, expected[n - 1]) << "n=" << n;
  }
}

TEST(Enumerate, DegreeBoundsRespected) {
  EnumerateOptions opts;
  opts.connected_only = true;
  opts.max_degree = 2;
  enumerate_graphs(5, opts, [&](const Graph& g) {
    EXPECT_LE(g.max_degree(), 2);
    return true;
  });
  opts.min_degree = 2;
  // Connected graphs on 5 nodes with all degrees exactly 2 = 5-cycles.
  std::size_t cycles = 0;
  enumerate_graphs(5, opts, [&](const Graph& g) {
    EXPECT_TRUE(g.is_regular(2));
    ++cycles;
    return true;
  });
  EXPECT_EQ(cycles, 12u);  // (5-1)!/2 labelled 5-cycles
}

TEST(Enumerate, EarlyStop) {
  EnumerateOptions opts;
  opts.connected_only = false;
  int seen = 0;
  enumerate_graphs(4, opts, [&](const Graph&) { return ++seen < 5; });
  EXPECT_EQ(seen, 5);
}

TEST(Enumerate, ReturnValueCountsGraphsStreamedToFn) {
  // Every variant returns the number of graphs passed to fn — including
  // the one on which fn returned false — never the number of candidate
  // edge sets.
  EnumerateOptions all;
  all.connected_only = false;
  std::size_t calls = 0;
  const std::size_t full = enumerate_graphs(4, all, [&](const Graph&) {
    ++calls;
    return true;
  });
  EXPECT_EQ(full, calls);
  EXPECT_EQ(full, 64u);  // 2^6 edge subsets
  calls = 0;
  const std::size_t stopped =
      enumerate_graphs(4, all, [&](const Graph&) { return ++calls < 5; });
  EXPECT_EQ(stopped, 5u);
  EXPECT_EQ(calls, 5u);

  EnumerateOptions conn;
  calls = 0;
  const std::size_t reduced = enumerate_graphs_modulo_iso(
      5, conn, [&](const Graph&) {
        ++calls;
        return true;
      });
  EXPECT_EQ(reduced, calls);
  calls = 0;
  const std::size_t reduced_stopped = enumerate_graphs_modulo_iso(
      5, conn, [&](const Graph&) { return ++calls < 3; });
  EXPECT_EQ(reduced_stopped, 3u);
}

TEST(Enumerate, ReturnValueMatchesA001187) {
  // Labelled connected graphs (OEIS A001187), via the return value alone.
  const std::size_t expected[] = {1, 1, 4, 38, 728};
  for (int n = 1; n <= 5; ++n) {
    EnumerateOptions opts;
    EXPECT_EQ(enumerate_graphs(n, opts, [](const Graph&) { return true; }),
              expected[n - 1])
        << "n=" << n;
  }
}

// Counts the connected graphs on n labelled nodes fixed by `perm`: a
// graph is fixed iff its edge set is a union of perm's edge orbits, so we
// enumerate orbit unions and test connectivity with bitmask BFS.
std::uint64_t connected_graphs_fixed_by(int n, const std::vector<int>& perm) {
  std::vector<std::pair<int, int>> edges;
  std::vector<std::vector<int>> idx(static_cast<std::size_t>(n),
                                    std::vector<int>(static_cast<std::size_t>(n), -1));
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      idx[u][v] = idx[v][u] = static_cast<int>(edges.size());
      edges.emplace_back(u, v);
    }
  }
  const int m = static_cast<int>(edges.size());
  std::vector<std::uint32_t> orbits;  // n <= 7 => m <= 21 edge bits
  std::vector<char> done(static_cast<std::size_t>(m), 0);
  for (int e = 0; e < m; ++e) {
    if (done[e]) continue;
    std::uint32_t mask = 0;
    int cur = e;
    while (!done[cur]) {
      done[cur] = 1;
      mask |= 1u << cur;
      cur = idx[perm[edges[cur].first]][perm[edges[cur].second]];
    }
    orbits.push_back(mask);
  }
  std::uint64_t count = 0;
  for (std::uint64_t s = 0; s < (1ULL << orbits.size()); ++s) {
    std::uint32_t edge_mask = 0;
    for (std::size_t o = 0; o < orbits.size(); ++o) {
      if (s & (1ULL << o)) edge_mask |= orbits[o];
    }
    std::uint32_t adj[7] = {};
    for (std::uint32_t rem = edge_mask; rem; rem &= rem - 1) {
      const int e = std::countr_zero(rem);
      adj[edges[e].first] |= 1u << edges[e].second;
      adj[edges[e].second] |= 1u << edges[e].first;
    }
    std::uint32_t reached = 1, frontier = 1;
    while (frontier) {
      std::uint32_t next = 0;
      for (std::uint32_t f = frontier; f; f &= f - 1) {
        next |= adj[std::countr_zero(f)];
      }
      frontier = next & ~reached;
      reached |= next;
    }
    if (reached == (1u << n) - 1) ++count;
  }
  return count;
}

TEST(Enumerate, IdentityBurnsideTermIsTheReturnValue) {
  // The identity permutation fixes every graph, so its Burnside term is
  // exactly the labelled connected count — i.e. what enumerate_graphs
  // reports through its return value.
  for (int n = 1; n <= 5; ++n) {
    std::vector<int> id(static_cast<std::size_t>(n));
    std::iota(id.begin(), id.end(), 0);
    EnumerateOptions opts;
    EXPECT_EQ(connected_graphs_fixed_by(n, id),
              enumerate_graphs(n, opts, [](const Graph&) { return true; }))
        << "n=" << n;
  }
}

TEST(Enumerate, UnlabelledConnectedCountsMatchOeisA001349) {
  // Burnside / orbit counting: #unlabelled connected graphs on n nodes =
  // (1/n!) * sum over permutations of #connected graphs fixed. The fixed
  // count depends only on the cycle type, so it is memoised per type.
  const std::uint64_t expected[] = {1, 1, 2, 6, 21, 112, 853};
  for (int n = 1; n <= 7; ++n) {
    std::vector<int> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    std::map<std::vector<int>, std::uint64_t> by_type;
    std::uint64_t total = 0, nperms = 0;
    do {
      std::vector<int> type;
      std::vector<char> seen(static_cast<std::size_t>(n), 0);
      for (int v = 0; v < n; ++v) {
        if (seen[v]) continue;
        int len = 0;
        for (int c = v; !seen[c]; c = perm[c]) {
          seen[c] = 1;
          ++len;
        }
        type.push_back(len);
      }
      std::sort(type.begin(), type.end());
      auto it = by_type.find(type);
      if (it == by_type.end()) {
        it = by_type.emplace(type, connected_graphs_fixed_by(n, perm)).first;
      }
      total += it->second;
      ++nperms;
    } while (std::next_permutation(perm.begin(), perm.end()));
    ASSERT_EQ(total % nperms, 0u) << "n=" << n;
    EXPECT_EQ(total / nperms, expected[n - 1]) << "n=" << n;
  }
}

TEST(Enumerate, ModuloIsoMatchesOeisA000088) {
  // Graphs up to isomorphism (OEIS A000088): canonical-certificate dedup
  // must land exactly on the unlabelled counts — the golden cross-check
  // that the certificate neither merges non-isomorphic graphs (count
  // would drop) nor splits isomorphism classes (count would grow).
  const std::size_t expected[] = {1, 2, 4, 11, 34, 156};
  for (int n = 1; n <= 6; ++n) {
    EnumerateOptions opts;
    opts.connected_only = false;
    EXPECT_EQ(enumerate_graphs_modulo_iso(
                  n, opts, [](const Graph&) { return true; }),
              expected[n - 1])
        << "n=" << n;
  }
}

TEST(Enumerate, ModuloIsoConnectedMatchesOeisA001349) {
  // Connected graphs up to isomorphism (OEIS A001349) — agrees with the
  // independent Burnside computation in UnlabelledConnectedCountsMatch.
  const std::size_t expected[] = {1, 1, 2, 6, 21, 112};
  for (int n = 1; n <= 6; ++n) {
    EnumerateOptions opts;
    std::size_t connected_reps = 0;
    enumerate_graphs_modulo_iso(n, opts, [&](const Graph& g) {
      EXPECT_TRUE(is_connected(g));
      ++connected_reps;
      return true;
    });
    EXPECT_EQ(connected_reps, expected[n - 1]) << "n=" << n;
  }
}

TEST(Enumerate, ModuloIsoFixesBothRefinementFailureModes) {
  // A colour-refinement signature is only a heuristic dedup key: it
  // SPLITS isomorphism classes when colour ids follow vertex order, and
  // it MERGES non-isomorphic regular graphs (one colour class each). The
  // canonical certificate has neither failure mode: P3 with the centre
  // first vs the centre second shares one certificate, and on all graphs
  // of order 5 the class count is the exact A000088 count.
  Graph centre_mid(3);  // 0 - 1 - 2
  centre_mid.add_edge(0, 1);
  centre_mid.add_edge(1, 2);
  Graph centre_first(3);  // 1 - 0 - 2
  centre_first.add_edge(0, 1);
  centre_first.add_edge(0, 2);
  EXPECT_EQ(canonical_certificate(centre_mid),
            canonical_certificate(centre_first));

  EnumerateOptions opts;
  opts.connected_only = false;
  const std::size_t by_iso = enumerate_graphs_modulo_iso(
      5, opts, [](const Graph&) { return true; });
  EXPECT_EQ(by_iso, 34u);  // A000088(5): exact
}

}  // namespace
}  // namespace wm
