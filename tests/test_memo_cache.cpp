// The serve memo-cache's contract, pinned:
//
//  - capacity boundary and second-chance eviction order (the walk
//    starts at the oldest admission, so the victims are pinned),
//  - hit/miss/eviction/bypass counter goldens for fixed sequences,
//  - single-flight: concurrent requesters of one key run compute once,
//  - a concurrent differential against a mutexed std::unordered_map
//    reference: whatever interleaving happens, every value returned or
//    peeked must be the one compute() produces for that key — eviction
//    must lose entries, never corrupt them.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/memo_cache.hpp"

namespace wm::serve {
namespace {

std::string value_for(const std::string& key) { return "v(" + key + ")"; }

TEST(MemoCache, MissThenHit) {
  MemoCache cache(8);
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return std::string("forty-two");
  };
  const MemoCache::Result first = cache.get_or_compute("k", compute);
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(first.value, "forty-two");
  const MemoCache::Result second = cache.get_or_compute("k", compute);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.value, "forty-two");
  EXPECT_EQ(computes, 1);

  const MemoCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_EQ(st.bypasses, 0u);
  EXPECT_EQ(st.entries, 1u);
}

TEST(MemoCache, CapacityBoundary) {
  MemoCache cache(2);
  cache.get_or_compute("a", [] { return std::string("A"); });
  cache.get_or_compute("b", [] { return std::string("B"); });
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  // Third distinct key: someone must go; live count stays at the cap.
  cache.get_or_compute("c", [] { return std::string("C"); });
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.peek("c").has_value());  // the newcomer is resident
}

TEST(MemoCache, SecondChanceSparesTheReferenced) {
  MemoCache cache(2);
  cache.get_or_compute("a", [] { return std::string("A"); });
  cache.get_or_compute("b", [] { return std::string("B"); });
  // Admitting "c" walks from the oldest end: both publish-time reference
  // bits are cleared on the first lap, so the oldest, "a", is evicted;
  // "c" publishes with its bit set. State now: "b" unreferenced, "c"
  // referenced.
  cache.get_or_compute("c", [] { return std::string("C"); });
  ASSERT_TRUE(cache.peek("c").has_value());  // peek sets no bits
  EXPECT_FALSE(cache.peek("a").has_value()) << "the oldest entry survived";
  ASSERT_TRUE(cache.peek("b").has_value());
  // Admitting "d" must therefore evict the unreferenced "b" and spare
  // the referenced "c". This is the second-chance protection.
  cache.get_or_compute("d", [] { return std::string("D"); });
  EXPECT_FALSE(cache.peek("b").has_value())
      << "unreferenced entry outlived a referenced one";
  EXPECT_TRUE(cache.peek("c").has_value())
      << "second-chance evicted the referenced entry";
  EXPECT_TRUE(cache.peek("d").has_value());
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(MemoCache, EvictedKeyRecomputes) {
  MemoCache cache(1);
  int computes_a = 0;
  cache.get_or_compute("a", [&] {
    ++computes_a;
    return std::string("A");
  });
  cache.get_or_compute("b", [] { return std::string("B"); });  // evicts "a"
  EXPECT_FALSE(cache.peek("a").has_value());
  const MemoCache::Result r = cache.get_or_compute("a", [&] {
    ++computes_a;
    return std::string("A");
  });
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(computes_a, 2);
  EXPECT_EQ(r.value, "A");
}

TEST(MemoCache, CounterGoldenSequence) {
  MemoCache cache(2);
  // miss a, hit a, miss b, hit b, miss c (evicts the oldest, a)
  cache.get_or_compute("a", [] { return std::string("A"); });
  cache.get_or_compute("a", [] { return std::string("A"); });
  cache.get_or_compute("b", [] { return std::string("B"); });
  cache.get_or_compute("b", [] { return std::string("B"); });
  cache.get_or_compute("c", [] { return std::string("C"); });
  const MemoCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.misses, 3u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.capacity, 2u);
  EXPECT_FALSE(cache.peek("a").has_value());
  EXPECT_TRUE(cache.peek("b").has_value());
  EXPECT_TRUE(cache.peek("c").has_value());
}

TEST(MemoCache, FailedComputeIsNotCached) {
  MemoCache cache(8);
  EXPECT_THROW(cache.get_or_compute(
                   "k", []() -> std::string { throw std::runtime_error("x"); }),
               std::runtime_error);
  EXPECT_FALSE(cache.peek("k").has_value());
  const MemoCache::Result r =
      cache.get_or_compute("k", [] { return std::string("ok"); });
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.value, "ok");
  EXPECT_TRUE(cache.peek("k").has_value());
}

// The name predates the single-lock cache, which has no shards; it is
// kept so the test id stays stable.
TEST(MemoCache, ManyKeysAcrossDefaultShards) {
  MemoCache cache(1024);
  for (int i = 0; i < 512; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const auto r = cache.get_or_compute(key, [&] { return value_for(key); });
    EXPECT_FALSE(r.hit);
  }
  for (int i = 0; i < 512; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const auto r = cache.get_or_compute(key, [&] { return value_for(key); });
    EXPECT_TRUE(r.hit) << key;
    EXPECT_EQ(r.value, value_for(key));
  }
  const MemoCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits, 512u);
  EXPECT_EQ(st.misses, 512u);
  EXPECT_EQ(st.evictions, 0u);
}

TEST(MemoCacheParallel, SingleFlightComputesOnce) {
  MemoCache cache(8);
  std::atomic<int> computes{0};
  std::atomic<int> hits{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const auto r = cache.get_or_compute("the-key", [&] {
        computes.fetch_add(1);
        // Widen the race window so waiters really pile onto the cv.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::string("shared");
      });
      EXPECT_EQ(r.value, "shared");
      if (r.hit) hits.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(computes.load(), 1);
  // Exactly one miss; every other requester (waiter or late) is a hit.
  EXPECT_EQ(hits.load(), kThreads - 1);
  const MemoCache::Stats st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(MemoCacheParallel, BypassWhenFullOfInFlight) {
  MemoCache cache(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  // Thread A occupies the only live slot with a blocked compute.
  std::thread a([&] {
    cache.get_or_compute("blocker", [&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
      return std::string("slow");
    });
  });
  // Wait until the blocker's in-flight entry is admitted.
  while (cache.stats().entries == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // A different key cannot evict the in-flight entry: bypass, computed
  // but not cached.
  const auto r = cache.get_or_compute("other", [] { return std::string("O"); });
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.value, "O");
  EXPECT_GE(cache.stats().bypasses, 1u);
  EXPECT_FALSE(cache.peek("other").has_value());
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  a.join();
  EXPECT_EQ(cache.peek("blocker"), std::optional<std::string>("slow"));
}

// The differential: hammer a small cache from many threads with an
// overlapping key population and compare every observation against the
// pure function the cache memoises. A mutexed unordered_map holds the
// reference values (computed eagerly, so the map itself is not under
// test). Eviction pressure is part of the point: entries may vanish and
// recompute, but a value for key K must always be value_for(K).
TEST(MemoCacheParallel, DifferentialAgainstReferenceMap) {
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  constexpr int kOpsPerThread = 2000;
  MemoCache cache(16);  // heavy eviction pressure

  std::unordered_map<std::string, std::string> reference;
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = "key-" + std::to_string(k);
    reference.emplace(key, value_for(key));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Deterministic per-thread key walk (splitmix-ish), no shared rng.
      std::uint64_t x = 0x9e3779b97f4a7c15ULL * static_cast<unsigned>(t + 1);
      for (int i = 0; i < kOpsPerThread; ++i) {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        const std::string key =
            "key-" + std::to_string(x % static_cast<unsigned>(kKeys));
        const auto r =
            cache.get_or_compute(key, [&] { return value_for(key); });
        if (r.value != reference.at(key)) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const MemoCache::Stats st = cache.stats();
  // Conservation: every operation resolved as exactly one of hit/miss.
  EXPECT_EQ(st.hits + st.misses,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(st.entries, st.capacity);
  // And whatever survived the pressure is uncorrupted.
  for (const auto& [key, expected] : reference) {
    if (const auto v = cache.peek(key)) {
      EXPECT_EQ(*v, expected) << key;
    }
  }
}

}  // namespace
}  // namespace wm::serve
