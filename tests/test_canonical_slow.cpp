// Slow canonical-form sweeps (CTest label `slow`): the full n = 7
// enumeration — 2^21 edge sets — bucketed by canonical certificate,
// cross-validated against OEIS golden counts and the exhaustive
// isomorphism test.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "graph/canonical.hpp"
#include "graph/enumerate.hpp"
#include "graph/graph.hpp"
#include "graph/properties.hpp"
#include "support/oracles.hpp"

namespace wm {
namespace {

TEST(CanonicalSlow, SweepN7GoldenCountsAndCompleteness) {
  EnumerateOptions opts;
  opts.connected_only = false;
  // One pass over all 2^21 graphs: bucket by certificate, remember the
  // first (lowest-mask) member as representative plus one later member
  // per bucket for the within-bucket agreement check.
  std::map<std::string, std::pair<Graph, std::vector<Graph>>> buckets;
  enumerate_graphs(7, opts, [&](const Graph& g) {
    auto [it, fresh] = buckets.try_emplace(canonical_certificate(g),
                                           std::make_pair(g, std::vector<Graph>{}));
    if (!fresh && it->second.second.size() < 2) it->second.second.push_back(g);
    return true;
  });

  // Golden counts: A000088(7) = 1044 graphs up to isomorphism, of which
  // A001349(7) = 853 are connected.
  EXPECT_EQ(buckets.size(), 1044u);
  std::size_t connected = 0;
  for (const auto& [cert, bucket] : buckets) {
    if (is_connected(bucket.first)) ++connected;
  }
  EXPECT_EQ(connected, 853u);

  // Within-bucket agreement: sampled members really are isomorphic to
  // their representative, per the pre-existing exhaustive test (n = 7 is
  // below the canonical routing cutoff, so this is an independent check).
  for (const auto& [cert, bucket] : buckets) {
    for (const Graph& member : bucket.second) {
      const auto witness = find_isomorphism(bucket.first, member);
      ASSERT_TRUE(witness.has_value());
      ASSERT_TRUE(is_isomorphism(bucket.first, member, *witness));
    }
  }

  // Cross-bucket refutation: representatives of distinct certificates
  // are pairwise non-isomorphic. 1044 choose 2 exhaustive searches is
  // too slow; the degree-sequence prefilter inside find_isomorphism
  // rejects almost all pairs, so group by degree sequence first and only
  // run the search within groups.
  std::map<std::vector<int>, std::vector<const Graph*>> by_degseq;
  for (const auto& [cert, bucket] : buckets) {
    by_degseq[bucket.first.degree_sequence()].push_back(&bucket.first);
  }
  for (const auto& [seq, group] : by_degseq) {
    for (std::size_t i = 0; i < group.size(); ++i) {
      for (std::size_t j = i + 1; j < group.size(); ++j) {
        ASSERT_FALSE(find_isomorphism(*group[i], *group[j]).has_value());
      }
    }
  }
}

TEST(CanonicalSlow, ModuloIsoEnumeratorMatchesSweep) {
  // The streaming enumerator must agree with the bucket count — and the
  // connected-only variant with A001349 directly.
  EnumerateOptions all;
  all.connected_only = false;
  std::size_t count = 0;
  enumerate_graphs_modulo_iso(7, all, [&](const Graph&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1044u);

  EnumerateOptions conn;
  conn.connected_only = true;
  count = 0;
  enumerate_graphs_modulo_iso(7, conn, [&](const Graph&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 853u);
}

}  // namespace
}  // namespace wm
