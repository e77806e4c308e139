// Task-parallel substrate for the exhaustive searches.
//
// Every theorem-checking experiment quantifies over all graphs and all
// port numberings at small scopes, so the hot path is embarrassingly
// parallel. This module provides the one shared engine for it: a small
// work-stealing thread pool plus three data-parallel helpers —
// `parallel_for`, the chunked `parallel_chunks` they all run on, and a
// cancellable `parallel_find_first` whose result is *deterministic* (the
// witness with the lowest index), so early-stop searches stay
// reproducible regardless of thread timing.
//
// Concurrency contract: the pool never touches user state; the helpers
// invoke the supplied callable from several threads at once, so the
// callable must only mutate data it owns (per-index slots, per-worker
// scratch). Exceptions thrown by a callable cancel the remaining chunks
// and one of them is rethrown in the calling thread after all workers
// have drained.
//
// A pool of size 1 spawns no threads at all: every helper then runs
// inline in the calling thread, in index order.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace wm {

/// Worker count used when a caller does not specify one: the WM_THREADS
/// environment variable if set and positive, else hardware concurrency,
/// else 1.
int default_thread_count();

/// Scheduling telemetry snapshot for one pool (ThreadPool::telemetry()).
/// All values are timing-dependent — they describe how the work was
/// scheduled, never how much work was done — and are mirrored into the
/// global `pool.*` info counters (obs/counters.hpp). Do not gate on them.
struct PoolTelemetry {
  /// Tasks executed per executor; slot 0 is the calling thread (tasks it
  /// drained on a single-executor pool), slots 1.. the spawned workers.
  std::vector<std::uint64_t> tasks_per_worker;
  std::uint64_t steal_attempts = 0;   // victim scans by idle workers
  std::uint64_t steal_successes = 0;  // scans that found a task
  std::uint64_t idle_wakeups = 0;     // times a worker slept on the cv
  std::uint64_t chunks_claimed = 0;   // cursor claims across all helpers
  std::uint64_t queue_high_water = 0; // deepest single deque seen
};

class ThreadPool {
 public:
  /// `threads` is the number of concurrent executors including the
  /// calling thread: the pool spawns `threads - 1` workers. 0 means
  /// default_thread_count().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of concurrent executors (>= 1, includes the calling thread).
  int num_threads() const { return executors_; }

  /// Enqueues a fire-and-forget task onto this worker's own deque when
  /// called from a pool thread, else onto the least-loaded deque. Idle
  /// workers steal from the back of other workers' deques. Tasks do not
  /// run on the calling thread; with num_threads() == 1 they run inside
  /// the next blocking helper call (or the destructor), which drains the
  /// queues.
  void submit(std::function<void()> task);

  /// Runs body(i) for every i in [begin, end), partitioned into chunks
  /// claimed in increasing order by all executors (the calling thread
  /// participates). Blocks until done; rethrows the first exception.
  /// `chunk` 0 picks a size aimed at ~8 chunks per executor.
  void parallel_for(std::uint64_t begin, std::uint64_t end,
                    const std::function<void(std::uint64_t)>& body,
                    std::uint64_t chunk = 0);

  /// Chunked variant: body(lo, hi, worker) with [lo, hi) a chunk and
  /// `worker` in [0, num_threads()) identifying the executor, stable for
  /// the duration of the call — use it to index per-thread scratch or
  /// per-thread consumers. Within one worker chunks arrive in increasing
  /// order; across workers the interleaving is unspecified. The shared
  /// driver of every helper: executors claim chunks from one atomic
  /// cursor, and an exception cancels the chunks not yet claimed.
  void parallel_chunks(
      std::uint64_t begin, std::uint64_t end,
      const std::function<void(std::uint64_t, std::uint64_t, int)>& body,
      std::uint64_t chunk = 0);

  /// Cancellable early-stop search: the lowest i in [begin, end) with
  /// pred(i), or nullopt. Deterministic: chunks are claimed in increasing
  /// order and a chunk is skipped only once a strictly lower witness is
  /// already known, so the returned index never depends on thread timing.
  /// pred may run on indices above the returned witness (in-flight chunks
  /// are not interrupted mid-scan) but never on a lower one it would miss.
  std::optional<std::uint64_t> parallel_find_first(
      std::uint64_t begin, std::uint64_t end,
      const std::function<bool(std::uint64_t)>& pred,
      std::uint64_t chunk = 0);

  /// Scheduling counters accumulated since construction. Safe to call
  /// concurrently with running helpers (values are a consistent-enough
  /// monotone snapshot, not a linearised one).
  PoolTelemetry telemetry() const;

 private:
  struct Queue {
    std::deque<std::function<void()>> tasks;
  };

  std::uint64_t chunk_size(std::uint64_t begin, std::uint64_t end,
                           std::uint64_t requested) const;
  void worker_loop(int index);
  bool run_one_task();

  int executors_ = 1;
  std::vector<std::thread> workers_;
  std::vector<Queue> queues_;  // one per spawned worker
  mutable std::mutex mu_;
  std::condition_variable cv_;        // workers: work available / stop
  std::condition_variable done_cv_;   // callers: job finished
  bool stop_ = false;

  // Telemetry. tasks_run_ / steal / idle / high-water are only mutated
  // under mu_ (the queue operations they describe already hold it);
  // chunks_claimed_ is on the lock-free cursor path, hence atomic.
  std::vector<std::uint64_t> tasks_run_;  // slot 0 = caller, 1.. = workers
  std::uint64_t steal_attempts_ = 0;
  std::uint64_t steal_successes_ = 0;
  std::uint64_t idle_wakeups_ = 0;
  std::uint64_t queue_high_water_ = 0;
  std::atomic<std::uint64_t> chunks_claimed_{0};
};

}  // namespace wm
