// The one parallel-search engine behind every exhaustive scan.
//
// Every search in this repo quantifies over an indexed candidate space —
// edge masks, port numberings, block colourings, anchor assignments —
// and needs one of three shapes:
//
//   dedup_stream visit a range of candidates, keep one representative
//                per equivalence class (lowest index), stream (key, rep)
//                pairs in index order
//   find_first   lowest index satisfying a predicate (early stop)
//   for_each     independent per-index work into caller-owned slots
//
// ParallelVisitor provides exactly those, runs them on the work-stealing
// ThreadPool when one is supplied and inline (index order, zero threads)
// when not, and owns the determinism contract in both modes: the result
// of every method is a pure function of the candidate space, never of
// thread timing. Searches above this layer (graph/enumerate,
// bisim/quotient, store/census, cover/covering, core/decision,
// core/solvability, core/synthesis, problems/catalogue) declare *what* to
// scan; this file is the only place that knows *how*.
//
// Determinism contracts (see DESIGN.md "Parallel visitor core"):
//  - dedup_stream keeps the *lowest* index per key and replays pairs
//    sorted, so the streamed sequence is identical at any executor count
//    — and identical to the sequential first-seen order, because an
//    in-order scan's first occurrence IS the lowest index. Pooled, each
//    executor fills a private map (its chunks arrive in increasing
//    order, so its first entry per key is its minimum) and the maps are
//    merged once after the join, min of mins.
//  - find_first delegates to ThreadPool::parallel_find_first
//    (lowest-witness contract); the inline path scans in order. Both run
//    the predicate inside obs::SpeculativeScope, so work counters hit
//    from predicates count 0 everywhere instead of a timing-dependent
//    amount.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/counters.hpp"
#include "util/parallel.hpp"

namespace wm {

class ParallelVisitor {
 public:
  /// `pool` may be nullptr: every method then runs inline in the calling
  /// thread, in index order.
  explicit ParallelVisitor(ThreadPool* pool) : pool_(pool) {}

  /// Deduplicated scan over [begin, end). For each index, visit(i, emit)
  /// classifies the candidate: emit(key) files index i under `key`, at
  /// most once per index (zero emits = candidate inadmissible). The
  /// lowest index of each key within the range is its representative;
  /// (key, rep) pairs are streamed to consume(key, rep) in increasing rep
  /// order until consume returns false. Returns the number of pairs
  /// streamed.
  ///
  /// Pooled: full scan in per-executor chunks, each executor into its
  /// own map, then one min-of-mins merge and a sorted replay — consume's
  /// early stop ends the replay but cannot cancel the (already complete)
  /// scan. Inline: first occurrences stream immediately and a stop
  /// cancels the rest of the scan. Either way the streamed prefix is the
  /// same sequence. Pooled memory is bounded by executors × distinct
  /// keys in the range.
  ///
  /// Passing the key through lets a caller running consecutive batches
  /// dedup across them against longer-lived state (the disk-backed
  /// certificate store of src/store): within-range duplicates never
  /// leave this method, cross-batch duplicates are the caller's to
  /// resolve. Because batches are scanned in increasing index order and
  /// pairs replay sorted, the first batch to stream a key holds its
  /// global minimum — the lowest-witness contract survives batching.
  ///
  /// Both paths emit the dedup.fresh_keys / dedup.dedup_hits work
  /// counters (distinct keys / re-encounters across the indices actually
  /// scanned), so pooled totals are thread-count-invariant by
  /// construction; batched callers must fix their batch size
  /// independently of the thread count.
  template <typename Key, typename Visit, typename Consume>
  std::size_t dedup_stream(std::uint64_t begin, std::uint64_t end,
                           Visit&& visit, Consume&& consume) const {
    if (pool_ != nullptr) {
      using Map = std::unordered_map<Key, std::uint64_t>;
      std::vector<Map> maps(static_cast<std::size_t>(pool_->num_threads()));
      std::atomic<std::uint64_t> inserts{0};
      pool_->parallel_chunks(begin, end, [&](std::uint64_t lo,
                                             std::uint64_t hi, int worker) {
        Map& map = maps[static_cast<std::size_t>(worker)];
        std::uint64_t emitted = 0;
        for (std::uint64_t i = lo; i < hi; ++i) {
          // This executor's chunks arrive in increasing order, so its
          // first index per key is its minimum.
          visit(i, [&](Key key) {
            ++emitted;
            map.try_emplace(std::move(key), i);
          });
        }
        inserts.fetch_add(emitted, std::memory_order_relaxed);
      });
      // Min of mins: move over the keys `merged` lacks, then lower the
      // ones both hold.
      Map& merged = maps[0];
      for (std::size_t w = 1; w < maps.size(); ++w) {
        merged.merge(maps[w]);
        for (const auto& [key, rep] : maps[w]) {
          std::uint64_t& min = merged.find(key)->second;
          min = std::min(min, rep);
        }
      }
      WM_COUNT_ADD(dedup.fresh_keys, merged.size());
      WM_COUNT_ADD(dedup.dedup_hits, inserts.load() - merged.size());
      std::vector<const typename Map::value_type*> reps;
      reps.reserve(merged.size());
      for (const auto& entry : merged) reps.push_back(&entry);
      std::sort(reps.begin(), reps.end(), [](const auto* a, const auto* b) {
        return a->second < b->second;
      });
      std::size_t streamed = 0;
      for (const auto* entry : reps) {
        ++streamed;
        if (!consume(entry->first, entry->second)) break;
      }
      return streamed;
    }
    // Inline: in-order scan, first occurrence per key streamed on the
    // spot. Counter totals are emitted from the same two quantities the
    // pooled merge uses (inserts and distinct keys).
    std::unordered_set<Key> seen;
    std::uint64_t inserts = 0;
    std::size_t streamed = 0;
    bool stop = false;
    for (std::uint64_t i = begin; i < end && !stop; ++i) {
      visit(i, [&](Key key) {
        ++inserts;
        auto [it, fresh] = seen.insert(std::move(key));
        if (!fresh || stop) return;
        ++streamed;
        if (!consume(*it, i)) stop = true;
      });
    }
    WM_COUNT_ADD(dedup.fresh_keys, seen.size());
    WM_COUNT_ADD(dedup.dedup_hits, inserts - seen.size());
    return streamed;
  }

  /// Lowest index in [begin, end) satisfying pred, or nullopt. The
  /// predicate runs inside obs::SpeculativeScope in both modes: pooled
  /// scans are speculative (indices above the witness may be probed), so
  /// work counters incremented from predicates are suppressed everywhere
  /// to keep totals thread-count-invariant — count deterministic work
  /// from the returned witness instead.
  std::optional<std::uint64_t> find_first(
      std::uint64_t begin, std::uint64_t end,
      const std::function<bool(std::uint64_t)>& pred) const {
    if (pool_ != nullptr) return pool_->parallel_find_first(begin, end, pred);
    obs::SpeculativeScope suppress_work_counters;
    for (std::uint64_t i = begin; i < end; ++i) {
      if (pred(i)) return i;
    }
    return std::nullopt;
  }

  /// Runs body(i) for every i in [0, count): pooled parallel_for, or an
  /// inline in-order loop. body must only touch data it owns (per-index
  /// slots, per-worker scratch).
  void for_each(std::uint64_t count,
                const std::function<void(std::uint64_t)>& body) const {
    if (pool_ != nullptr) {
      pool_->parallel_for(0, count, body);
      return;
    }
    for (std::uint64_t i = 0; i < count; ++i) body(i);
  }

 private:
  ThreadPool* pool_;
};

}  // namespace wm
