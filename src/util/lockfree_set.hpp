// Lock-free concurrent hash set / min-map for parallel exhaustive search.
//
// DiVinE-style open-addressing table built for state-space exploration:
// power-of-two capacity, splitmix-mixed triangular probing, CAS slot
// claims, and *no locks on the hot path* (a mutex-sharded table capped
// dedup throughput at 8+ threads). Design constraints it exploits:
//
//  - Keys are never deleted. A slot goes nullptr -> Entry* exactly once,
//    so readers need no hazard pointers or epochs: an Entry observed via
//    an acquire load is immortal and fully constructed (the claiming CAS
//    is a release). Reclamation happens only in the destructor.
//
//  - The per-key value is a *minimum*. Entry values are lowered with a
//    relaxed CAS loop, so the final value per key is a pure function of
//    the inserted multiset — the determinism contract every parallel
//    search in this repo is built on (see DESIGN.md).
//
//  - Growth is cooperative and optional. When a segment passes its load
//    factor (or a probe run exceeds the cap), the inserting thread
//    allocates a segment of twice the capacity and CAS-publishes it as
//    the new head; losers adopt the winner's segment. Old segments stay
//    live (lookups walk the chain newest -> oldest), so no migration and
//    no blocking. A key can, in a narrow race with growth, end up with
//    one entry in two segments; harvest() merges such duplicates by
//    taking the min-of-mins, which preserves the pure-function contract
//    exactly. Callers that can estimate their key count should pre-size
//    (see expected_keys) — a right-sized table never grows and never
//    duplicates.
//
// Observability: fresh/hit *work* counters (dedup.fresh_keys /
// dedup.dedup_hits) are emitted once, at harvest time, from the exact
// distinct-key count — insert-time counting would be timing-dependent in
// the duplicate race above, harvest counting never is, so the totals are
// thread-count-invariant and safe for tools/bench_diff.py to gate.
// Probe lengths, CAS retries and growths are scheduling-dependent and
// join the pool.* telemetry as *info* counters (dedup.probe_steps,
// dedup.cas_retries, dedup.grows).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "util/hash_mix.hpp"

namespace wm {

/// Concurrent map keeping the *minimum* value ever inserted per key.
/// insert_min is lock-free and safe from any number of threads; size()
/// and harvest()/values() are sequential-only (call after the parallel
/// phase — the pool join provides the needed happens-before edge).
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LockfreeMinMap {
  static_assert(std::is_trivially_copyable_v<Value>,
                "LockfreeMinMap values live in std::atomic<Value>");

 public:
  /// `expected_keys` pre-sizes the first segment so a correct estimate
  /// (or upper bound) means no growth and no cross-segment duplicates;
  /// 0 starts small and relies on cooperative growth.
  explicit LockfreeMinMap(std::size_t expected_keys = 0) {
    head_.store(new Segment(capacity_for(expected_keys), nullptr),
                std::memory_order_release);
  }

  ~LockfreeMinMap() {
    Segment* s = head_.load(std::memory_order_acquire);
    while (s != nullptr) {
      for (std::size_t i = 0; i <= s->mask; ++i) {
        delete s->slots[i].load(std::memory_order_relaxed);
      }
      Segment* next = s->next;
      delete s;
      s = next;
    }
  }

  LockfreeMinMap(const LockfreeMinMap&) = delete;
  LockfreeMinMap& operator=(const LockfreeMinMap&) = delete;

  /// Records `value` for `key`, keeping the smallest value per key.
  /// Lock-free: at most one allocation per *new* key, no mutex anywhere.
  /// Returns true iff this call claimed a brand-new entry (the key was
  /// absent from every segment this thread could see). Under concurrent
  /// inserts of one key exactly one claimer sees true per segment the
  /// key lands in; in sequential use it is an exact freshness test —
  /// which is how the disk-backed cert store's memory front uses it.
  bool insert_min(const Key& key, const Value& value) {
    inserts_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t h = hash_mix(static_cast<std::uint64_t>(Hash{}(key)));
    std::uint64_t probe_steps = 0;
    std::uint64_t cas_retries = 0;
    Entry* spare = nullptr;
    bool fresh = false;
    Segment* seg = head_.load(std::memory_order_acquire);
    for (;;) {
      // 1) Existing entry anywhere in the chain (newest -> oldest)?
      Entry* found = nullptr;
      for (Segment* s = seg; s != nullptr && found == nullptr; s = s->next) {
        found = find_entry(*s, h, key, probe_steps);
      }
      if (found != nullptr) {
        merge_min(*found, value, cas_retries);
        break;
      }
      // 2) Claim a slot in the newest segment we saw.
      const Claim claim = try_claim(*seg, h, key, value, spare,
                                    probe_steps, cas_retries);
      if (claim == Claim::kInserted) {
        spare = nullptr;
        fresh = true;
        break;
      }
      if (claim == Claim::kMerged) break;
      // Segment full (load factor or probe cap): publish a bigger head,
      // or adopt the one a faster thread already published, and retry.
      seg = grow(seg);
    }
    delete spare;
    WM_COUNT_INFO_ADD(dedup.probe_steps, probe_steps);
    if (cas_retries > 0) WM_COUNT_INFO_ADD(dedup.cas_retries, cas_retries);
    return fresh;
  }

  /// The minimum recorded for `key` so far, or nullopt. Safe concurrently
  /// with inserts (the returned snapshot may be stale); exact in
  /// sequential use.
  std::optional<Value> find(const Key& key) const {
    const std::uint64_t h = hash_mix(static_cast<std::uint64_t>(Hash{}(key)));
    std::uint64_t probe_steps = 0;
    for (Segment* s = head_.load(std::memory_order_acquire); s != nullptr;
         s = s->next) {
      if (Entry* e = find_entry(*s, h, key, probe_steps)) {
        return e->value.load(std::memory_order_relaxed);
      }
    }
    return std::nullopt;
  }

  /// Number of insert_min calls so far (relaxed snapshot).
  std::uint64_t inserts() const {
    return inserts_.load(std::memory_order_relaxed);
  }

  /// Distinct keys (cross-segment duplicates merged). Sequential-only.
  std::size_t size() const {
    std::size_t n = 0;
    for_each_merged([&](const Key&, Value) { ++n; });
    return n;
  }

  /// Collects the per-key minima, in unspecified order, merging any
  /// cross-segment duplicates by min-of-mins. Sequential-only. Emits the
  /// dedup fresh/hit work counters exactly once per table — both totals
  /// are pure functions of the inserted multiset, hence identical at any
  /// thread count.
  std::vector<Value> values() {
    std::vector<Value> out;
    for_each_merged([&](const Key&, Value v) { out.push_back(v); });
    count_once(out.size());
    return out;
  }

  /// Like values(), but with the keys: (key, min value) pairs in
  /// unspecified order. Sequential-only; emits the counters once unless
  /// `emit_counters` is false (the cert store's memory front drains
  /// through here and must not pollute the gated dedup.* totals).
  std::vector<std::pair<Key, Value>> harvest(bool emit_counters = true) {
    std::vector<std::pair<Key, Value>> out;
    for_each_merged([&](const Key& k, Value v) { out.emplace_back(k, v); });
    if (emit_counters) count_once(out.size());
    return out;
  }

  /// Segments currently chained (1 = never grew). Sequential-only.
  std::size_t segments() const {
    std::size_t n = 0;
    for (Segment* s = head_.load(std::memory_order_acquire); s != nullptr;
         s = s->next) {
      ++n;
    }
    return n;
  }

 private:
  struct Entry {
    const std::uint64_t hash;
    const Key key;
    std::atomic<Value> value;
    Entry(std::uint64_t h, const Key& k, const Value& v)
        : hash(h), key(k), value(v) {}
  };

  struct Segment {
    const std::size_t mask;  // capacity - 1, capacity a power of two
    Segment* const next;     // older, smaller segment
    std::atomic<std::size_t> used{0};
    std::unique_ptr<std::atomic<Entry*>[]> slots;
    Segment(std::size_t capacity, Segment* tail)
        : mask(capacity - 1),
          next(tail),
          slots(new std::atomic<Entry*>[capacity]()) {}
    std::size_t max_load() const { return mask + 1 - (mask + 1) / 4; }
  };

  enum class Claim { kInserted, kMerged, kFull };

  static constexpr std::size_t kMinCapacity = 64;
  static constexpr std::uint64_t kProbeCap = 64;

  static std::size_t capacity_for(std::size_t expected_keys) {
    // Aim below a 3/4 load factor at the caller's estimate.
    std::size_t cap = kMinCapacity;
    while (cap - cap / 4 < expected_keys && cap < (std::size_t{1} << 62)) {
      cap <<= 1;
    }
    return cap;
  }

  /// Probes `s` for `key`; nullptr if absent from this segment. Stops at
  /// the first empty slot: claims always take the first empty slot of
  /// the probe sequence and slots never empty, so no entry lives beyond
  /// one.
  Entry* find_entry(const Segment& s, std::uint64_t h, const Key& key,
                    std::uint64_t& probe_steps) const {
    std::size_t idx = static_cast<std::size_t>(h) & s.mask;
    const std::uint64_t cap = std::min<std::uint64_t>(kProbeCap, s.mask + 1);
    for (std::uint64_t step = 0; step < cap; ++step) {
      Entry* e = s.slots[idx].load(std::memory_order_acquire);
      ++probe_steps;
      if (e == nullptr) return nullptr;
      if (e->hash == h && e->key == key) return e;
      idx = (idx + step + 1) & s.mask;  // triangular: covers all of 2^k
    }
    return nullptr;
  }

  Claim try_claim(Segment& s, std::uint64_t h, const Key& key,
                  const Value& value, Entry*& spare,
                  std::uint64_t& probe_steps, std::uint64_t& cas_retries) {
    std::size_t idx = static_cast<std::size_t>(h) & s.mask;
    const std::uint64_t cap = std::min<std::uint64_t>(kProbeCap, s.mask + 1);
    for (std::uint64_t step = 0; step < cap; ++step) {
      std::atomic<Entry*>& slot = s.slots[idx];
      Entry* cur = slot.load(std::memory_order_acquire);
      ++probe_steps;
      if (cur == nullptr) {
        if (s.used.load(std::memory_order_relaxed) >= s.max_load()) {
          return Claim::kFull;
        }
        if (spare == nullptr) spare = new Entry(h, key, value);
        if (slot.compare_exchange_strong(cur, spare,
                                         std::memory_order_release,
                                         std::memory_order_acquire)) {
          s.used.fetch_add(1, std::memory_order_relaxed);
          return Claim::kInserted;
        }
        ++cas_retries;  // cur now holds the winner; fall through
      }
      if (cur->hash == h && cur->key == key) {
        merge_min(*cur, value, cas_retries);
        return Claim::kMerged;
      }
      idx = (idx + step + 1) & s.mask;
    }
    return Claim::kFull;
  }

  static void merge_min(Entry& e, const Value& value,
                        std::uint64_t& cas_retries) {
    Value cur = e.value.load(std::memory_order_relaxed);
    while (value < cur) {
      if (e.value.compare_exchange_weak(cur, value,
                                        std::memory_order_relaxed)) {
        return;
      }
      ++cas_retries;
    }
  }

  Segment* grow(Segment* from) {
    Segment* bigger = new Segment((from->mask + 1) * 2, from);
    Segment* expected = from;
    if (head_.compare_exchange_strong(expected, bigger,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      WM_COUNT_INFO(dedup.grows);
      return bigger;
    }
    delete bigger;  // a faster thread grew; adopt its head
    return expected;
  }

  /// Visits every (key, min value) once, merging cross-segment
  /// duplicates. Single-segment tables (the common, pre-sized case) are
  /// duplicate-free by the CAS arbitration argument and skip the merge
  /// map entirely.
  template <typename Fn>
  void for_each_merged(Fn&& fn) const {
    Segment* head = head_.load(std::memory_order_acquire);
    if (head->next == nullptr) {
      for (std::size_t i = 0; i <= head->mask; ++i) {
        if (Entry* e = head->slots[i].load(std::memory_order_acquire)) {
          fn(e->key, e->value.load(std::memory_order_relaxed));
        }
      }
      return;
    }
    std::unordered_map<Key, Value, Hash> merged;
    for (Segment* s = head; s != nullptr; s = s->next) {
      for (std::size_t i = 0; i <= s->mask; ++i) {
        if (Entry* e = s->slots[i].load(std::memory_order_acquire)) {
          const Value v = e->value.load(std::memory_order_relaxed);
          auto [it, fresh] = merged.try_emplace(e->key, v);
          if (!fresh && v < it->second) it->second = v;
        }
      }
    }
    for (const auto& [k, v] : merged) fn(k, v);
  }

  void count_once(std::size_t distinct) {
    if (counted_) return;
    counted_ = true;
    (void)distinct;  // counters compile out under -DWM_OBS=OFF
    WM_COUNT_ADD(dedup.fresh_keys, distinct);
    WM_COUNT_ADD(dedup.dedup_hits, inserts() - distinct);
  }

  std::atomic<Segment*> head_{nullptr};
  std::atomic<std::uint64_t> inserts_{0};
  bool counted_ = false;
};

}  // namespace wm
