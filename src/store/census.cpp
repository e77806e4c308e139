#include "store/census.hpp"

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/manifest.hpp"
#include "obs/progress.hpp"
#include "store/checkpoint.hpp"
#include "util/visitor.hpp"

namespace wm::store {

namespace {

/// Running totals that must survive a kill: seeded from the checkpoint
/// on resume, folded back into the next one.
struct Cumulative {
  std::uint64_t next = 0;
  std::uint64_t classes = 0;
  std::uint64_t admissible = 0;
  std::uint64_t scanned = 0;
  std::uint64_t batches = 0;
  std::uint64_t checkpoints = 0;
};

void commit_checkpoint(const CensusSpace& space, const CensusOptions& opts,
                       CertStore& store, Cumulative& cum,
                       std::uint64_t& crashes_armed, int threads) {
  store.seal();
  store.compact_if_needed();
  Checkpoint cp;
  cp.kind = space.kind;
  cp.space = space.count;
  cp.batch = opts.batch;
  cp.next = cum.next;
  cp.classes = cum.classes;
  cp.admissible = cum.admissible;
  cp.scanned = cum.scanned;
  cp.batches = cum.batches;
  cp.checkpoints = ++cum.checkpoints;
  cp.store_segments = store.segment_refs();
  cp.manifest_json = obs::manifest_json(threads);
  write_checkpoint(opts.checkpoint_path, cp);
  WM_COUNT_INFO(census.checkpoints);
  if (crashes_armed > 0 && --crashes_armed == 0) {
    // Test hook: die after the commit, before the purge — resume must
    // cope with both the purged and the unpurged aftermath.
    ::kill(::getpid(), SIGKILL);
  }
  store.purge_unreferenced();
}

}  // namespace

CensusResult run_census(const CensusSpace& space, const std::string& store_dir,
                        ThreadPool* pool, const CensusOptions& opts) {
  if (!space.classify) {
    throw std::invalid_argument("census space has no classify function");
  }
  if (opts.batch == 0) throw std::invalid_argument("census batch must be > 0");
  if (opts.checkpoint_path.empty()) {
    throw std::invalid_argument("census needs a checkpoint path");
  }
  WM_SCOPE("census.run");

  Cumulative cum;
  CensusResult result;
  result.kind = space.kind;
  result.space = space.count;

  std::optional<CertStore> store;
  if (opts.resume && std::filesystem::exists(opts.checkpoint_path)) {
    const Checkpoint cp = load_checkpoint(opts.checkpoint_path);
    if (cp.kind != space.kind) {
      throw StoreError(StoreErrorCode::kKindMismatch,
                       opts.checkpoint_path + ": checkpoint is for kind '" +
                           cp.kind + "', census is '" + space.kind + "'");
    }
    if (cp.space != space.count || cp.batch != opts.batch) {
      throw StoreError(
          StoreErrorCode::kCheckpointSkew,
          opts.checkpoint_path +
              ": checkpoint space/batch disagree with this census (space " +
              std::to_string(cp.space) + " vs " + std::to_string(space.count) +
              ", batch " + std::to_string(cp.batch) + " vs " +
              std::to_string(opts.batch) + ")");
    }
    store.emplace(CertStore::open_at(store_dir, space.kind, cp.store_segments,
                                     opts.store));
    cum.next = cp.next;
    cum.classes = cp.classes;
    cum.admissible = cp.admissible;
    cum.scanned = cp.scanned;
    cum.batches = cp.batches;
    cum.checkpoints = cp.checkpoints;
    result.resumed = true;
    WM_COUNT_INFO(census.resumes);
  } else {
    // Cold start: whatever store state exists belongs to no checkpoint —
    // wipe it rather than silently merging two censuses.
    CertStore::wipe(store_dir);
    store.emplace(CertStore::open(store_dir, space.kind, opts.store));
  }

  const ParallelVisitor visitor(pool);
  const int threads = pool == nullptr ? 1 : pool->num_threads();
  std::uint64_t crashes_armed = opts.crash_after;
  const auto start = std::chrono::steady_clock::now();
  const auto over_budget = [&] {
    if (opts.budget_secs <= 0.0) return false;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() >= opts.budget_secs;
  };

  obs::ProgressTask progress("census." + space.kind,
                             space.count - cum.next);
  std::uint64_t batches_this_run = 0;
  std::uint64_t batches_since_checkpoint = 0;
  bool paused = false;
  while (cum.next < space.count) {
    if (over_budget() ||
        (opts.max_batches > 0 && batches_this_run >= opts.max_batches)) {
      paused = true;
      break;
    }
    const std::uint64_t lo = cum.next;
    const std::uint64_t hi = std::min(space.count, lo + opts.batch);
    std::atomic<std::uint64_t> batch_admissible{0};
    visitor.dedup_stream<std::string>(
        lo, hi,
        [&](std::uint64_t i, auto&& emit) {
          if (std::optional<std::string> cert = space.classify(i)) {
            batch_admissible.fetch_add(1, std::memory_order_relaxed);
            emit(std::move(*cert));
          }
        },
        [&](const std::string& key, std::uint64_t rep) {
          if (store->insert_fresh(key, rep)) ++cum.classes;
          return true;
        });
    cum.admissible += batch_admissible.load(std::memory_order_relaxed);
    cum.scanned += hi - lo;
    cum.next = hi;
    ++cum.batches;
    ++batches_this_run;
    progress.tick(hi - lo);
    WM_COUNT_INFO(census.batches);
    if (++batches_since_checkpoint >= opts.checkpoint_every) {
      commit_checkpoint(space, opts, *store, cum, crashes_armed, threads);
      batches_since_checkpoint = 0;
    }
  }
  // Final commit covers the tail batches (and records completion: a
  // checkpoint with next == space is the done marker).
  if (batches_since_checkpoint > 0 || cum.checkpoints == 0 || paused) {
    commit_checkpoint(space, opts, *store, cum, crashes_armed, threads);
  }

  result.scanned = cum.scanned;
  result.admissible = cum.admissible;
  result.classes = cum.classes;
  result.batches = cum.batches;
  result.checkpoints = cum.checkpoints;
  result.complete = cum.next >= space.count;
  result.store = store->stats();
  return result;
}

}  // namespace wm::store
