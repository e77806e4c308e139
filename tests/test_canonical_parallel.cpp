// Determinism tests for the pooled canonical paths: the pooled
// modulo-isomorphism enumeration and the canonical-keyed quotient search
// must be byte-identical to their inline runs at every thread count (the
// lowest-witness contract of util/visitor.hpp).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bisim/quotient.hpp"
#include "graph/canonical.hpp"
#include "graph/enumerate.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "logic/kripke.hpp"
#include "port/port_numbering.hpp"
#include "support/canon_harness.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace wm {
namespace {

std::vector<std::string> iso_certs(int n, const EnumerateOptions& opts,
                                   ThreadPool* pool) {
  std::vector<std::string> certs;
  enumerate_graphs_modulo_iso(
      n, opts,
      [&](const Graph& g) {
        certs.push_back(canonical_certificate(g));
        return true;
      },
      pool);
  return certs;
}

TEST(CanonicalParallel, ModuloIsoEnumerationMatchesSequential) {
  for (const bool connected : {false, true}) {
    EnumerateOptions opts;
    opts.connected_only = connected;
    for (int n = 1; n <= 5; ++n) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " connected=" + std::to_string(connected));
      const auto seq = iso_certs(n, opts, nullptr);
      for (const int threads : {2, 8}) {
        ThreadPool pool(threads);
        EXPECT_EQ(seq, iso_certs(n, opts, &pool)) << "threads=" << threads;
      }
    }
  }
}

TEST(CanonicalParallel, ModuloIsoRepresentativesAreLowestMask) {
  // The pooled scan must replay the same graphs (not merely equally
  // many): compare adjacency, not just certificates.
  EnumerateOptions opts;
  opts.connected_only = false;
  std::vector<Graph> seq;
  enumerate_graphs_modulo_iso(5, opts, [&](const Graph& g) {
    seq.push_back(g);
    return true;
  });
  ThreadPool pool(4);
  std::size_t i = 0;
  enumerate_graphs_modulo_iso(
      5, opts,
      [&](const Graph& g) {
        EXPECT_LT(i, seq.size());
        if (i < seq.size()) {
          EXPECT_EQ(seq[i], g);
        }
        ++i;
        return true;
      },
      &pool);
  EXPECT_EQ(i, seq.size());
}

TEST(CanonicalParallel, QuotientSearchPooledMatchesSequential) {
  // The pool drives minimisation AND canonicalisation per candidate; the
  // per-key minimum makes the representative set thread-agnostic.
  for (const std::uint64_t seed : canontest::seeds_under_test()) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    auto build = [seed](std::uint64_t i) {
      Rng rng(seed * 1315423911ULL + i);
      return canontest::random_kripke_model(rng);
    };
    const QuotientSearchResult serial =
        search_distinct_quotients(40, build, /*graded=*/false, nullptr);
    for (const int threads : {2, 8}) {
      ThreadPool pool(threads);
      const QuotientSearchResult par =
          search_distinct_quotients(40, build, /*graded=*/false, &pool);
      ASSERT_EQ(serial.representatives, par.representatives)
          << "threads=" << threads;
      ASSERT_EQ(serial.models.size(), par.models.size());
      for (std::size_t j = 0; j < serial.models.size(); ++j) {
        EXPECT_EQ(canonical_certificate(serial.models[j]),
                  canonical_certificate(par.models[j]));
      }
    }
  }
}

}  // namespace
}  // namespace wm
