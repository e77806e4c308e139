#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "obs/counters.hpp"
#include "port/port_numbering.hpp"
#include "runtime/engine.hpp"
#include "support/diff_harness.hpp"
#include "transform/simulations.hpp"
#include "util/rng.hpp"
#include "util/visitor.hpp"

namespace wm {
namespace {

TEST(ThreadPool, ParallelForCoversRangeOnce) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(), [&](std::uint64_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, FindFirstReturnsLowestWitnessAtAnyThreadCount) {
  // Hits at 113, 500, 501, ...: every thread count must report 113, even
  // though higher chunks may be scanned first by other workers.
  auto pred = [](std::uint64_t i) { return i == 113 || i >= 500; };
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (int rep = 0; rep < 20; ++rep) {
      const auto hit = pool.parallel_find_first(0, 4096, pred, /*chunk=*/7);
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(*hit, 113u) << "threads=" << threads;
    }
  }
}

TEST(ThreadPool, FindFirstMissesReturnNullopt) {
  ThreadPool pool(4);
  const auto hit =
      pool.parallel_find_first(0, 1000, [](std::uint64_t) { return false; });
  EXPECT_FALSE(hit.has_value());
}

TEST(ThreadPool, FindFirstEmptyRange) {
  ThreadPool pool(2);
  EXPECT_FALSE(
      pool.parallel_find_first(5, 5, [](std::uint64_t) { return true; })
          .has_value());
}

TEST(ThreadPool, FindFirstEmptyAndReversedRangesNeverCallThePredicate) {
  // Regression: an empty span must short-circuit to nullopt before any
  // chunk-size arithmetic — including begin > end and every pool size /
  // explicit chunk combination.
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (const std::uint64_t chunk : {std::uint64_t{0}, std::uint64_t{1},
                                      std::uint64_t{64}}) {
      for (const auto& [begin, end] :
           {std::pair<std::uint64_t, std::uint64_t>{0, 0},
            {7, 7},
            {10, 3}}) {
        bool called = false;
        const auto hit = pool.parallel_find_first(
            begin, end,
            [&](std::uint64_t) {
              called = true;
              return true;
            },
            chunk);
        EXPECT_FALSE(hit.has_value())
            << "threads=" << threads << " chunk=" << chunk << " ["
            << begin << "," << end << ")";
        EXPECT_FALSE(called);
      }
    }
  }
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(0, 100,
                          [](std::uint64_t i) {
                            if (i == 37) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // The pool stays usable after a failed job.
    std::atomic<int> count{0};
    pool.parallel_for(0, 50, [&](std::uint64_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(ThreadPool, SubmittedTasksRunEventually) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor drains
  EXPECT_EQ(ran.load(), 20);
}

// --- ParallelVisitor::dedup_stream -----------------------------------------
//
// Every iso-free search dedups through dedup_stream, so its contract is
// pinned directly: pooled (per-executor maps, merged after the join) and
// inline scans stream exactly the (key, lowest index) pairs of a
// std::map min-fold, in index order, at every executor count.
// WM_SEED=<n> narrows the seeded sweeps to one seed.
//
// The Lockfree* suites keep the names their checks had when the pooled
// path filed every key in one shared lock-free CAS table; they now pin
// what replaced it: a private map per executor, one min-of-mins merge
// after the join, and the counters taken from that merge.

/// Candidate i files itself under keys[i], or is inadmissible (nullopt).
template <typename Key>
using Candidates = std::vector<std::optional<Key>>;

template <typename Key>
using Pairs = std::vector<std::pair<Key, std::uint64_t>>;

/// Executor counts the pooled path is checked at.
std::vector<std::unique_ptr<ThreadPool>> dedup_pools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const int threads : {1, 2, 4, 8, 16}) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  return pools;
}

/// The (key, rep) pairs dedup_stream over [begin, end) hands to consume,
/// which stops after `limit` pairs. Checks the returned count on the way.
template <typename Key>
Pairs<Key> stream(ThreadPool* pool, const Candidates<Key>& cands,
                  std::uint64_t begin, std::uint64_t end,
                  std::size_t limit = std::numeric_limits<std::size_t>::max()) {
  Pairs<Key> out;
  const std::size_t returned = ParallelVisitor(pool).dedup_stream<Key>(
      begin, end,
      [&](std::uint64_t i, auto&& emit) {
        if (cands[i]) emit(*cands[i]);
      },
      [&](const Key& key, std::uint64_t rep) {
        out.emplace_back(key, rep);
        return out.size() < limit;
      });
  EXPECT_EQ(returned, out.size());
  return out;
}

/// The oracle: fold std::min over the admissible indices of [begin, end)
/// visited in shuffled order, then list the pairs by representative.
template <typename Key>
Pairs<Key> min_fold(const Candidates<Key>& cands, std::uint64_t begin,
                    std::uint64_t end, Rng& rng) {
  std::vector<std::uint64_t> order;
  for (std::uint64_t i = begin; i < end; ++i) order.push_back(i);
  rng.shuffle(order);
  std::map<Key, std::uint64_t> mins;
  for (const std::uint64_t i : order) {
    if (!cands[i]) continue;
    const auto [it, fresh] = mins.try_emplace(*cands[i], i);
    if (!fresh) it->second = std::min(it->second, i);
  }
  Pairs<Key> out(mins.begin(), mins.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return out;
}

/// `count` candidates, one in five inadmissible, the rest drawing keys
/// from `keyspace` distinct values.
template <typename MakeKey>
auto seeded_candidates(Rng& rng, std::uint64_t count, std::uint64_t keyspace,
                       MakeKey make_key) {
  Candidates<decltype(make_key(0))> cands(count);
  for (auto& slot : cands) {
    if (!rng.chance(1, 5)) slot = make_key(rng.below(keyspace));
  }
  return cands;
}

template <typename MakeKey>
void expect_pooled_inline_and_min_fold_agree(MakeKey make_key) {
  using Key = decltype(make_key(0));
  constexpr std::uint64_t kCount = 3000;
  const auto pools = dedup_pools();
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng rng(seed);
    // Hit-heavy, insert-heavy, and a space where nothing is admissible.
    const std::vector<Candidates<Key>> spaces = {
        seeded_candidates(rng, kCount, 1 + rng.below(64), make_key),
        seeded_candidates(rng, kCount, kCount, make_key),
        Candidates<Key>(kCount)};
    for (const Candidates<Key>& cands : spaces) {
      const std::uint64_t lo = 1 + rng.below(kCount / 2);
      const std::uint64_t hi = lo + rng.below(kCount - lo + 1);
      for (const auto& [begin, end] :
           {std::pair<std::uint64_t, std::uint64_t>{0, kCount},
            {lo, hi},
            {lo, lo},
            {kCount, kCount}}) {
        const auto expected = min_fold(cands, begin, end, rng);
        EXPECT_EQ(stream(nullptr, cands, begin, end), expected)
            << "inline [" << begin << "," << end << ") WM_SEED=" << seed;
        for (const auto& pool : pools) {
          EXPECT_EQ(stream(pool.get(), cands, begin, end), expected)
              << "executors=" << pool->num_threads() << " [" << begin << ","
              << end << ") WM_SEED=" << seed;
        }
      }
    }
  }
}

TEST(LockfreeVsSharded, IdenticalContentOnSeededInsertMultisets) {
  // Integer keys; DedupStream.PooledInlineAndMinFoldAgreeOnStringKeys is
  // the same differential over string keys.
  expect_pooled_inline_and_min_fold_agree(
      [](std::uint64_t k) { return k * 2654435761ULL; });
}

TEST(DedupStream, PooledInlineAndMinFoldAgreeOnStringKeys) {
  expect_pooled_inline_and_min_fold_agree(
      [](std::uint64_t k) { return "key-" + std::to_string(k); });
}

TEST(DedupStream, EarlyStopStreamsTheSamePrefixPooledAndInline) {
  // Pooled, a stop ends the replay of a finished scan; inline, it cancels
  // the scan. Both must hand consume the same prefix and count it alike.
  constexpr std::uint64_t kCount = 2000;
  const auto pools = dedup_pools();
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng rng(seed);
    const auto cands = seeded_candidates(
        rng, kCount, 200, [](std::uint64_t k) { return std::to_string(k); });
    const auto full = min_fold(cands, 0, kCount, rng);
    for (const std::size_t limit :
         {std::size_t{1}, std::size_t{2}, full.size() / 2, full.size(),
          full.size() + 5}) {
      const Pairs<std::string> prefix(
          full.begin(), full.begin() + std::min(limit, full.size()));
      EXPECT_EQ(stream(nullptr, cands, 0, kCount, limit), prefix)
          << "inline limit=" << limit << " WM_SEED=" << seed;
      for (const auto& pool : pools) {
        EXPECT_EQ(stream(pool.get(), cands, 0, kCount, limit), prefix)
            << "executors=" << pool->num_threads() << " limit=" << limit
            << " WM_SEED=" << seed;
      }
    }
  }
}

TEST(LockfreeMinMap, KeepsMinimumPerKeyUnderContention) {
  // 10000 candidates over 17 keys: every chunk files all 17, so the maps
  // of all executors that scan overlap on every key and the merge must
  // keep key k's lowest index, k.
  constexpr std::uint64_t kCount = 10000;
  Candidates<int> cands(kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    cands[i] = static_cast<int>(i % 17);
  }
  Pairs<int> expected;
  for (int k = 0; k < 17; ++k) expected.emplace_back(k, k);
  for (const int threads : {8, 16}) {
    ThreadPool pool(threads);
    EXPECT_EQ(stream(&pool, cands, 0, kCount), expected)
        << "executors=" << threads;
  }
}

TEST(LockfreeMinMap, HammerManyDistinctKeysManyWorkers) {
  // Insert-heavy at scale: each of 50000 candidates is a fresh key, so
  // the executors' maps are disjoint and the merge moves every entry
  // over. None may be lost or given another representative.
  constexpr std::uint64_t kCount = 50000;
  Candidates<std::uint64_t> cands(kCount);
  Pairs<std::uint64_t> expected;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    cands[i] = i * 2654435761ULL;  // odd multiplier: distinct keys
    expected.emplace_back(*cands[i], i);
  }
  for (const int threads : {8, 16}) {
    ThreadPool pool(threads);
    EXPECT_EQ(stream(&pool, cands, 0, kCount), expected)
        << "executors=" << threads;
  }
}

#ifndef WM_OBS_DISABLED
/// The (dedup.fresh_keys, dedup.dedup_hits) work-counter totals that
/// run() adds.
template <typename Run>
std::pair<std::uint64_t, std::uint64_t> dedup_counter_delta(Run&& run) {
  const auto before = obs::registry().snapshot(obs::CounterKind::kWork);
  run();
  const auto after = obs::registry().snapshot(obs::CounterKind::kWork);
  const auto delta = [&](const char* name) {
    const auto b = before.find(name);
    const auto a = after.find(name);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
  };
  return {delta("dedup.fresh_keys"), delta("dedup.dedup_hits")};
}
#endif

TEST(LockfreeMinMap, HarvestCountersAreThreadCountInvariant) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  // dedup.fresh_keys / dedup.dedup_hits are gated work counters, compared
  // across thread counts with bench_diff --exact: distinct keys and
  // emits minus distinct keys, whatever the executor count.
  constexpr std::uint64_t kCount = 30000;
  Rng rng(2012);
  const auto cands = seeded_candidates(rng, kCount, 333,
                                       [](std::uint64_t k) { return k; });
  const std::uint64_t emits = static_cast<std::uint64_t>(
      std::count_if(cands.begin(), cands.end(),
                    [](const auto& c) { return c.has_value(); }));
  const std::uint64_t distinct = min_fold(cands, 0, kCount, rng).size();
  const std::pair<std::uint64_t, std::uint64_t> expected{distinct,
                                                         emits - distinct};
  EXPECT_EQ(dedup_counter_delta([&] { stream(nullptr, cands, 0, kCount); }),
            expected);
  for (const int threads : {1, 4, 8, 16}) {
    ThreadPool pool(threads);
    EXPECT_EQ(dedup_counter_delta([&] { stream(&pool, cands, 0, kCount); }),
              expected)
        << "executors=" << threads;
  }
#endif
}

TEST(LockfreeMinMap, CountersEmitOnceAcrossRepeatedHarvests) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  // Keys 1, 1, 2: two fresh keys and one hit, added once per call and
  // again by a repeat call. A stop ends a pooled call's replay after the
  // scan is complete, so its totals stay whole; inline it cancels the
  // scan, which then counted index 0 only.
  using Totals = std::pair<std::uint64_t, std::uint64_t>;
  const Candidates<int> cands = {1, 1, 2};
  constexpr std::size_t kWhole = std::numeric_limits<std::size_t>::max();
  const auto totals = [&](ThreadPool* pool, std::size_t limit) {
    return dedup_counter_delta([&] { stream(pool, cands, 0, 3, limit); });
  };
  for (int call = 0; call < 2; ++call) {
    EXPECT_EQ(totals(nullptr, kWhole), (Totals{2, 1}))
        << "inline call " << call;
    EXPECT_EQ(totals(nullptr, 1), (Totals{1, 0})) << "inline call " << call;
  }
  for (const int threads : {1, 4, 16}) {
    ThreadPool pool(threads);
    for (int call = 0; call < 2; ++call) {
      for (const std::size_t limit : {kWhole, std::size_t{1}}) {
        EXPECT_EQ(totals(&pool, limit), (Totals{2, 1}))
            << "executors=" << threads << " limit=" << limit << " call "
            << call;
      }
    }
  }
#endif
}

// --- Re-entrancy of the execution engine ----------------------------------

TEST(ParallelExecution, OneMachineManyGraphsMatchesSequential) {
  // A Vector-probe machine wrapped by the Theorem 8 transformer — the
  // layered simulation state is the stress case for const-safety.
  auto probe = std::make_shared<LambdaMachine>();
  probe->cls = AlgebraicClass::vector();
  probe->init_fn = [](int d) {
    return Value::triple(Value::str("x"), Value::integer(2), Value::integer(d));
  };
  probe->stopping_fn = [](const Value& s) { return s.is_int(); };
  probe->message_fn = [](const Value& s, int) { return s.at(2); };
  probe->transition_fn = [](const Value& s, const Value& inbox, int) {
    std::int64_t acc = 0;
    for (const Value& v : inbox.items()) {
      if (!v.is_unit()) acc += v.as_int();
    }
    if (s.at(1).as_int() == 1) return Value::integer(acc);
    return Value::triple(Value::str("x"), Value::integer(1),
                         Value::integer(acc));
  };
  const auto machine = to_multiset_machine(probe);

  Rng rng(42);
  std::vector<PortNumbering> instances;
  for (int t = 0; t < 24; ++t) {
    const Graph g = random_connected_graph(8, 4, 4, rng);
    instances.push_back(PortNumbering::random(g, rng));
  }
  std::vector<std::vector<Value>> sequential;
  for (const PortNumbering& p : instances) {
    sequential.push_back(execute(*machine, p).final_states);
  }

  ThreadPool pool(8);
  std::vector<ExecutionContext> ctxs(
      static_cast<std::size_t>(pool.num_threads()));
  std::vector<std::vector<Value>> parallel(instances.size());
  pool.parallel_chunks(
      0, instances.size(),
      [&](std::uint64_t lo, std::uint64_t hi, int worker) {
        ExecutionContext& ctx = ctxs[static_cast<std::size_t>(worker)];
        for (std::uint64_t i = lo; i < hi; ++i) {
          parallel[i] = execute(*machine, instances[i], ctx).final_states;
        }
      },
      1);
  EXPECT_EQ(parallel, sequential);
}

}  // namespace
}  // namespace wm
