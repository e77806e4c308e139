// Sharded single-flight memo-cache for the serve layer.
//
// Maps request cache keys (canonical certificates plus endpoint
// parameters — see serve/protocol.cpp for how keys are built so that
// sharing results across clients is sound) to serialised result blobs.
// Layout: open addressing — power-of-two slot arrays, avalanche-mixed
// (util/hash_mix.hpp) triangular probing — with slots under a
// per-shard mutex: eviction and single-flight waiting need states a
// lock-free slot cannot round-trip cheaply, and the variable-length
// blobs make copies under contention more expensive than the lock.
//
// Semantics:
//
//  - *Single flight*: the first requester of an absent key claims a
//    kComputing slot and runs `compute` outside the lock; concurrent
//    requesters of the same key block on the shard's condition variable
//    and share the published blob. A waiter counts as a *hit* — so
//    given capacity >= distinct keys, hits == total - distinct at any
//    thread count, which is what lets the serve endpoints export
//    hit/miss tallies as deterministic work counters.
//
//  - *Capacity-bounded second-chance eviction*: each shard caps its
//    live (kReady + kComputing) entries; inserting past the cap sweeps
//    a clock hand over the slots, clearing `referenced` on the first
//    pass and evicting the first unreferenced kReady entry on the
//    second. kComputing entries are never evicted (a waiter holds a
//    reference to the key). Evicted slots become kTombstone so probe
//    chains stay intact; when tombstones crowd the table the shard
//    rehashes in place (kReady/kComputing survive, tombstones drop).
//
//  - *Bypass*: if every live entry of a full shard is kComputing there
//    is nothing to evict; the request computes without caching (counted
//    as a miss plus a `bypasses` tally) rather than blocking on cache
//    admission.
//
//  - Exceptions from `compute` revert the claimed slot to kTombstone,
//    wake the waiters (who then race to claim the key themselves) and
//    propagate — a failed computation is never cached.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "util/hash_mix.hpp"

namespace wm::serve {

class MemoCache {
 public:
  /// `capacity` bounds live entries across all shards (>= 1 enforced);
  /// `shards` 0 picks 8. Tests pass shards = 1 for deterministic
  /// eviction-order goldens.
  explicit MemoCache(std::size_t capacity, int shards = 0);

  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  struct Result {
    std::string value;
    bool hit = false;  // served from cache (including a single-flight wait)
  };

  /// Returns the blob for `key`, running `compute` exactly once per
  /// cached lifetime of the key (see single-flight above). `compute`
  /// runs outside all cache locks.
  Result get_or_compute(const std::string& key,
                        const std::function<std::string()>& compute);

  /// The blob if currently cached (kReady); does not wait, does not
  /// count as a hit, does not set the reference bit. Test hook.
  std::optional<std::string> peek(const std::string& key) const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t bypasses = 0;
    std::size_t entries = 0;  // live (kReady + kComputing) right now
    std::size_t capacity = 0;
  };
  Stats stats() const;

 private:
  enum class State : std::uint8_t { kEmpty, kTombstone, kComputing, kReady };

  struct Slot {
    State state = State::kEmpty;
    bool referenced = false;
    std::uint64_t hash = 0;
    std::string key;
    std::string value;
  };

  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::vector<Slot> slots;
    std::size_t live = 0;       // kComputing + kReady
    std::size_t occupied = 0;   // live + tombstones
    std::size_t clock = 0;      // second-chance hand
  };

  static std::uint64_t key_hash(const std::string& key);
  Shard& shard_for(std::uint64_t hash);
  const Shard& shard_for(std::uint64_t hash) const;

  /// Probe for `key`; returns the slot index holding it, or the index of
  /// the insertion candidate (first tombstone on the chain, else the
  /// terminating empty) with `found` false. Caller holds the shard lock.
  std::size_t probe(const Shard& s, std::uint64_t hash,
                    const std::string& key, bool& found) const;

  /// Second-chance clock sweep; true if a kReady entry was evicted.
  bool evict_one(Shard& s);

  /// Rebuilds the shard's table dropping tombstones. Slot indices move;
  /// everyone re-probes by key after re-acquiring the lock.
  void rehash(Shard& s);

  std::size_t shard_capacity_;  // live-entry cap per shard
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> bypasses_{0};
};

}  // namespace wm::serve
