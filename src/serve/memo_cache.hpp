// Single-flight memo-cache for the serve layer.
//
// Maps request cache keys (canonical certificates plus endpoint
// parameters — see serve/protocol.cpp for how keys are built so that
// sharing results across clients is sound) to serialised result blobs.
// Layout: one mutex over a std::unordered_map that indexes a std::list
// of entries kept in admission order. The lock covers one lookup or one
// list splice; `compute` always runs outside it. The server admits at
// most `--threads` requests at once (serve/server.hpp), so a single lock
// is all the contention there is to serve.
//
// Semantics:
//
//  - *Single flight*: the first requester of an absent key admits an
//    in-flight entry and runs `compute` outside the lock; concurrent
//    requesters of the same key block on the condition variable and
//    share the published blob. A waiter counts as a *hit* — so given
//    capacity >= distinct keys, hits == total - distinct at any thread
//    count, which is what lets the serve endpoints export hit/miss
//    tallies as deterministic work counters.
//
//  - *Capacity-bounded second-chance eviction*: admitting past the cap
//    walks the list from its oldest end. A referenced entry has its bit
//    cleared and moves to the young end; the first unreferenced
//    published entry is evicted. In-flight entries are never evicted (a
//    waiter holds a reference to the key).
//
//  - *Bypass*: if every entry of a full cache is in flight there is
//    nothing to evict; the request computes without caching (counted as
//    a miss plus a `bypasses` tally) rather than blocking on cache
//    admission.
//
//  - Exceptions from `compute` remove the in-flight entry, wake the
//    waiters (who then race to admit the key themselves) and propagate —
//    a failed computation is never cached.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace wm::serve {

class MemoCache {
 public:
  /// `capacity` bounds live entries (>= 1 enforced).
  explicit MemoCache(std::size_t capacity);

  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  struct Result {
    std::string value;
    bool hit = false;  // served from cache (including a single-flight wait)
  };

  /// Returns the blob for `key`, running `compute` exactly once per
  /// cached lifetime of the key (see single-flight above). `compute`
  /// runs outside the cache lock.
  Result get_or_compute(const std::string& key,
                        const std::function<std::string()>& compute);

  /// The blob if currently cached (published); does not wait, does not
  /// count as a hit, does not set the reference bit. Test hook.
  std::optional<std::string> peek(const std::string& key) const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bypasses = 0;
    std::size_t entries = 0;  // live (published + in flight) right now
    std::size_t capacity = 0;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::string key;
    std::string value;
    bool ready = false;  // false while its compute runs
    bool referenced = false;
  };
  using Entries = std::list<Entry>;

  /// Second-chance walk from the oldest end; true if a published entry
  /// was evicted. Caller holds mu_.
  bool evict_one();

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable published_;
  Entries entries_;  // admission order, oldest first
  // Keys view the entries' own key strings: list nodes never move.
  std::unordered_map<std::string_view, Entries::iterator> index_;
  Stats tally_;  // hits/misses/evictions/bypasses; guarded by mu_
};

}  // namespace wm::serve
