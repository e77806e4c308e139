// The lock-free dedup table under real concurrency.
//
// LockfreeMinMap is the engine under every dedup_stream (util/visitor.hpp),
// so its contract gets the full treatment: multi-worker hammer tests at 8
// and 16 threads (the TSan CI job runs this suite via the `parallel`
// label), fill-to-capacity and cooperative-growth paths, and a
// differential suite pinning its harvest byte-identical to a sequential
// std::map min-fold of the same seeded insert multiset.
// WM_SEED=<n> narrows the seeded sweeps to one seed.
#include "util/lockfree_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "support/diff_harness.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace wm {
namespace {

TEST(LockfreeMinMap, KeepsMinimumPerKeyUnderContention) {
  for (const int threads : {8, 16}) {
    LockfreeMinMap<int, std::uint64_t> table;
    ThreadPool pool(threads);
    pool.parallel_for(0, 10000, [&](std::uint64_t i) {
      table.insert_min(static_cast<int>(i % 17), i);
    });
    EXPECT_EQ(table.size(), 17u);
    std::vector<std::uint64_t> mins = table.values();
    std::sort(mins.begin(), mins.end());
    // Key k's minimum inserted value is k itself (first occurrence).
    ASSERT_EQ(mins.size(), 17u) << "threads=" << threads;
    for (std::size_t k = 0; k < mins.size(); ++k) EXPECT_EQ(mins[k], k);
  }
}

TEST(LockfreeMinMap, HammerManyDistinctKeysManyWorkers) {
  // Insert-heavy: every index is a fresh key, so the table grows (or
  // pre-sizes) through tens of thousands of CAS claims racing across
  // workers. Verifies no insert is lost and every value survives intact.
  constexpr std::uint64_t kKeys = 50000;
  for (const int threads : {8, 16}) {
    for (const std::size_t presize : {std::size_t{0}, std::size_t{kKeys}}) {
      LockfreeMinMap<std::uint64_t, std::uint64_t> table(presize);
      ThreadPool pool(threads);
      pool.parallel_for(0, kKeys, [&](std::uint64_t i) {
        table.insert_min(i * 2654435761ULL, i);
      });
      EXPECT_EQ(table.inserts(), kKeys);
      std::vector<std::uint64_t> got = table.values();
      EXPECT_EQ(got.size(), kKeys)
          << "threads=" << threads << " presize=" << presize;
      std::sort(got.begin(), got.end());
      for (std::uint64_t i = 0; i < kKeys; ++i) EXPECT_EQ(got[i], i);
    }
  }
}

TEST(LockfreeMinMap, HammerHitHeavyMix) {
  // Hit-heavy: 64 keys, 100k inserts — the CAS min-merge path under
  // maximal contention. The surviving minima must be exact.
  for (const int threads : {8, 16}) {
    LockfreeMinMap<std::string, std::uint64_t> table;
    ThreadPool pool(threads);
    pool.parallel_for(0, 100000, [&](std::uint64_t i) {
      table.insert_min("key-" + std::to_string(i % 64), i);
    });
    std::vector<std::uint64_t> mins = table.values();
    std::sort(mins.begin(), mins.end());
    ASSERT_EQ(mins.size(), 64u);
    for (std::size_t k = 0; k < mins.size(); ++k) EXPECT_EQ(mins[k], k);
  }
}

TEST(LockfreeMinMap, FillPreSizedToCapacityNeverGrows) {
  // A correct caller estimate means one segment, no growth, and hence no
  // cross-segment duplicates — the pre-sizing contract DESIGN.md sells.
  constexpr std::size_t kKeys = 3000;
  LockfreeMinMap<int, std::uint64_t> table(kKeys);
  ThreadPool pool(8);
  pool.parallel_for(0, kKeys, [&](std::uint64_t i) {
    table.insert_min(static_cast<int>(i), i);
  });
  EXPECT_EQ(table.segments(), 1u);
  EXPECT_EQ(table.size(), kKeys);
}

TEST(LockfreeMinMap, GrowthPathChainsSegmentsAndLosesNothing) {
  // Unsized table, far more keys than the minimum capacity: growth must
  // chain segments while older entries stay findable and new inserts of
  // old keys still merge to the minimum.
  constexpr std::uint64_t kKeys = 5000;
  LockfreeMinMap<std::uint64_t, std::uint64_t> table(0);
  ThreadPool pool(8);
  // Two passes over the same keys with different values: the second pass
  // must find the first pass's entries wherever growth left them.
  pool.parallel_for(0, kKeys * 2, [&](std::uint64_t i) {
    const std::uint64_t key = i % kKeys;
    table.insert_min(key, key + (i < kKeys ? 0 : 1000000));
  });
  EXPECT_GT(table.segments(), 1u);
  std::vector<std::uint64_t> mins = table.values();
  EXPECT_EQ(mins.size(), kKeys);
  std::sort(mins.begin(), mins.end());
  for (std::uint64_t k = 0; k < kKeys; ++k) EXPECT_EQ(mins[k], k);
}

TEST(LockfreeMinMap, SequentialFillToExactCapacityBoundary) {
  // Exactly max_load inserts into the smallest table: the load-factor
  // trip must hand off to a second segment, not loop or overfill.
  LockfreeMinMap<int, std::uint64_t> table;
  for (int i = 0; i < 64; ++i) {  // kMinCapacity = 64; max load = 48
    table.insert_min(i, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(table.size(), 64u);
  EXPECT_GE(table.segments(), 2u);
  std::vector<std::uint64_t> mins = table.values();
  std::sort(mins.begin(), mins.end());
  for (std::size_t k = 0; k < mins.size(); ++k) EXPECT_EQ(mins[k], k);
}

// --- Differential: lock-free vs an exact sequential reference -------------

// The suite name records the mutex-sharded table this one replaced; the
// reference is now the simplest exact one, a std::map min-fold.
TEST(LockfreeVsSharded, IdenticalContentOnSeededInsertMultisets) {
  // For the same insert multiset — seeded-random keys and values,
  // applied from 1/2/8-worker pools — the lock-free table must harvest
  // exactly the (key, min) pairs of a sequential min-fold.
  // WM_SEED=<n> reproduces one seed.
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    // Build the insert multiset deterministically up front so the
    // reference and every thread count see the same multiset.
    Rng rng(seed);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> inserts;
    const std::uint64_t keyspace = 1 + rng.below(400);
    for (int i = 0; i < 20000; ++i) {
      inserts.emplace_back(rng.below(keyspace), rng.next());
    }
    std::map<std::uint64_t, std::uint64_t> reference;
    for (const auto& [k, v] : inserts) {
      const auto [it, fresh] = reference.try_emplace(k, v);
      if (!fresh) it->second = std::min(it->second, v);
    }
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected(
        reference.begin(), reference.end());

    for (const int threads : {1, 2, 8}) {
      LockfreeMinMap<std::uint64_t, std::uint64_t> lockfree;
      ThreadPool pool(threads);
      pool.parallel_for(0, inserts.size(), [&](std::uint64_t i) {
        lockfree.insert_min(inserts[i].first, inserts[i].second);
      });
      auto pairs = lockfree.harvest();
      std::sort(pairs.begin(), pairs.end());
      EXPECT_EQ(pairs, expected)
          << "lock-free diverged from the min-fold at threads=" << threads
          << " — reproduce with WM_SEED=" << seed;
    }
  }
}

#ifndef WM_OBS_DISABLED
TEST(LockfreeMinMap, HarvestCountersAreThreadCountInvariant) {
  // dedup.fresh_keys / dedup.dedup_hits are *work* counters: the gate in
  // tools/bench_diff.py compares them across thread counts with --exact,
  // so they must be a pure function of the insert multiset. Harvest-time
  // counting makes that hold even when a grow race files one key in two
  // segments.
  auto run = [](int threads) {
    const auto before = obs::registry().snapshot(obs::CounterKind::kWork);
    {
      LockfreeMinMap<std::uint64_t, std::uint64_t> table;
      ThreadPool pool(threads);
      pool.parallel_for(0, 30000, [&](std::uint64_t i) {
        table.insert_min(i % 333, i);
      });
      (void)table.values();
    }
    const auto after = obs::registry().snapshot(obs::CounterKind::kWork);
    const auto delta = [&](const char* name) {
      const auto b = before.find(name);
      const auto a = after.find(name);
      return (a == after.end() ? 0 : a->second) -
             (b == before.end() ? 0 : b->second);
    };
    return std::pair<std::uint64_t, std::uint64_t>{delta("dedup.fresh_keys"),
                                                   delta("dedup.dedup_hits")};
  };
  const auto reference = run(1);
  EXPECT_EQ(reference.first, 333u);
  EXPECT_EQ(reference.second, 30000u - 333u);
  EXPECT_EQ(run(8), reference);
  EXPECT_EQ(run(16), reference);
}

TEST(LockfreeMinMap, CountersEmitOnceAcrossRepeatedHarvests) {
  const auto before = obs::registry().snapshot(obs::CounterKind::kWork);
  LockfreeMinMap<int, std::uint64_t> table;
  table.insert_min(1, 10);
  table.insert_min(1, 5);
  table.insert_min(2, 7);
  (void)table.values();
  (void)table.values();
  (void)table.harvest();
  const auto after = obs::registry().snapshot(obs::CounterKind::kWork);
  const auto b_fresh = before.find("dedup.fresh_keys");
  EXPECT_EQ(after.at("dedup.fresh_keys") -
                (b_fresh == before.end() ? 0 : b_fresh->second),
            2u);
  const auto b_hits = before.find("dedup.dedup_hits");
  EXPECT_EQ(after.at("dedup.dedup_hits") -
                (b_hits == before.end() ? 0 : b_hits->second),
            1u);
}
#endif

}  // namespace
}  // namespace wm
