#include "util/parallel.hpp"

#include <cstdlib>
#include <limits>

#include "obs/counters.hpp"

namespace wm {

int default_thread_count() {
  if (const char* env = std::getenv("WM_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads) {
  executors_ = threads > 0 ? threads : default_thread_count();
  const int spawned = executors_ - 1;
  queues_.resize(static_cast<std::size_t>(spawned > 0 ? spawned : 1));
  tasks_run_.assign(static_cast<std::size_t>(executors_), 0);
  workers_.reserve(static_cast<std::size_t>(spawned));
  for (int i = 0; i < spawned; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  if (workers_.empty()) {
    // Single-executor pool: drain anything submit() deferred.
    while (run_one_task()) {
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Push onto the shortest deque; idle workers steal from the others,
    // so placement only affects contention, not completion.
    std::size_t target = 0;
    for (std::size_t i = 1; i < queues_.size(); ++i) {
      if (queues_[i].tasks.size() < queues_[target].tasks.size()) target = i;
    }
    queues_[target].tasks.push_back(std::move(task));
    const std::uint64_t depth = queues_[target].tasks.size();
    if (depth > queue_high_water_) {
      queue_high_water_ = depth;
      WM_COUNT_MAX(pool.queue_high_water, depth);
    }
  }
  cv_.notify_one();
}

bool ThreadPool::run_one_task() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Queue& q : queues_) {
      if (!q.tasks.empty()) {
        task = std::move(q.tasks.front());
        q.tasks.pop_front();
        ++tasks_run_[0];
        break;
      }
    }
  }
  if (!task) return false;
  WM_COUNT_INFO(pool.tasks);
  task();
  return true;
}

void ThreadPool::worker_loop(int index) {
  const std::size_t self = static_cast<std::size_t>(index);
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        // Own deque first (front = oldest of our work)...
        if (!queues_[self].tasks.empty()) {
          task = std::move(queues_[self].tasks.front());
          queues_[self].tasks.pop_front();
          ++tasks_run_[self + 1];
          break;
        }
        // ...then steal from the back of the other deques.
        bool stole = false;
        if (queues_.size() > 1) {
          ++steal_attempts_;
          WM_COUNT_INFO(pool.steal_attempts);
        }
        for (std::size_t off = 1; off < queues_.size() && !stole; ++off) {
          Queue& victim = queues_[(self + off) % queues_.size()];
          if (!victim.tasks.empty()) {
            task = std::move(victim.tasks.back());
            victim.tasks.pop_back();
            stole = true;
            ++steal_successes_;
            ++tasks_run_[self + 1];
            WM_COUNT_INFO(pool.steals);
          }
        }
        if (stole) break;
        if (stop_) return;
        ++idle_wakeups_;
        WM_COUNT_INFO(pool.idle_wakeups);
        cv_.wait(lock);
      }
    }
    WM_COUNT_INFO(pool.tasks);
    task();
  }
}

std::uint64_t ThreadPool::chunk_size(std::uint64_t begin, std::uint64_t end,
                                     std::uint64_t requested) const {
  if (requested > 0) return requested;
  const std::uint64_t span = end - begin;
  const std::uint64_t per =
      span / (static_cast<std::uint64_t>(executors_) * 8);
  return per > 0 ? per : 1;
}

void ThreadPool::parallel_chunks(
    std::uint64_t begin, std::uint64_t end,
    const std::function<void(std::uint64_t, std::uint64_t, int)>& body,
    std::uint64_t chunk) {
  if (begin >= end) return;
  const std::uint64_t c = chunk_size(begin, end, chunk);

  struct Job {
    std::atomic<std::uint64_t> cursor;
    std::uint64_t end;
    std::uint64_t chunk;
    std::atomic<bool> cancelled{false};
    std::exception_ptr err;
    std::mutex err_mu;
  };
  Job job;
  job.cursor.store(begin, std::memory_order_relaxed);
  job.end = end;
  job.chunk = c;

  auto drive = [this, &body, &job](int worker) {
    for (;;) {
      if (job.cancelled.load(std::memory_order_relaxed)) return;
      const std::uint64_t lo =
          job.cursor.fetch_add(job.chunk, std::memory_order_relaxed);
      if (lo >= job.end) return;
      chunks_claimed_.fetch_add(1, std::memory_order_relaxed);
      WM_COUNT_INFO(pool.chunks);
      const std::uint64_t hi =
          job.end - lo < job.chunk ? job.end : lo + job.chunk;
      try {
        body(lo, hi, worker);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(job.err_mu);
          if (!job.err) job.err = std::current_exception();
        }
        job.cancelled.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  const int spawned = static_cast<int>(workers_.size());
  std::atomic<int> outstanding{spawned};
  for (int w = 0; w < spawned; ++w) {
    submit([&, w] {
      drive(w + 1);  // executor ids: 0 = caller, 1.. = workers
      if (outstanding.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mu_);
        done_cv_.notify_all();
      }
    });
  }
  drive(0);
  if (spawned == 0) {
    // Single-executor pool: also drain deferred submit() tasks so they
    // observe the documented "runs inside the next blocking helper" rule.
    while (run_one_task()) {
    }
  } else {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return outstanding.load(std::memory_order_acquire) == 0;
    });
  }
  if (job.err) std::rethrow_exception(job.err);
}

void ThreadPool::parallel_for(std::uint64_t begin, std::uint64_t end,
                              const std::function<void(std::uint64_t)>& body,
                              std::uint64_t chunk) {
  parallel_chunks(
      begin, end,
      [&body](std::uint64_t lo, std::uint64_t hi, int) {
        for (std::uint64_t i = lo; i < hi; ++i) body(i);
      },
      chunk);
}

std::optional<std::uint64_t> ThreadPool::parallel_find_first(
    std::uint64_t begin, std::uint64_t end,
    const std::function<bool(std::uint64_t)>& pred, std::uint64_t chunk) {
  // Empty (or reversed) range: no candidate exists, so "not found" —
  // returned up front so chunk-size arithmetic never sees an empty span.
  if (begin >= end) return std::nullopt;
  constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
  std::atomic<std::uint64_t> best{kNone};
  parallel_chunks(
      begin, end,
      [&](std::uint64_t lo, std::uint64_t hi, int) {
        // Skip-only cancellation keeps the result deterministic: a chunk
        // is abandoned only when a strictly lower witness is already
        // recorded, so the minimum over recorded hits is the global
        // minimum.
        if (lo >= best.load(std::memory_order_acquire)) return;
        // The *set of indices* pred runs on above the witness is
        // timing-dependent even though the result is not, so work
        // counters incremented inside pred would break the
        // thread-count-invariance contract. Suppress them here;
        // deterministic callers count from the returned witness.
        obs::SpeculativeScope suppress_work_counters;
        for (std::uint64_t i = lo; i < hi; ++i) {
          if (i >= best.load(std::memory_order_acquire)) return;
          if (pred(i)) {
            std::uint64_t cur = best.load(std::memory_order_acquire);
            while (i < cur && !best.compare_exchange_weak(
                                  cur, i, std::memory_order_acq_rel)) {
            }
            return;
          }
        }
      },
      chunk);
  const std::uint64_t found = best.load(std::memory_order_acquire);
  if (found == kNone) return std::nullopt;
  return found;
}

PoolTelemetry ThreadPool::telemetry() const {
  PoolTelemetry t;
  {
    std::lock_guard<std::mutex> lock(mu_);
    t.tasks_per_worker = tasks_run_;
    t.steal_attempts = steal_attempts_;
    t.steal_successes = steal_successes_;
    t.idle_wakeups = idle_wakeups_;
    t.queue_high_water = queue_high_water_;
  }
  t.chunks_claimed = chunks_claimed_.load(std::memory_order_relaxed);
  return t;
}

}  // namespace wm
