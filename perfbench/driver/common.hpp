// Shared plumbing of the benchmark driver: timing, the in-memory span
// recorder used by traced runs, and the raw-result writer that
// perfbench/run.py reads back.
//
// The driver never computes statistics. It records raw samples (round
// times, per-operation latencies, set-up times), counts and spans, and
// writes them to <out>/raw.json and <out>/spans.json; run.py turns them
// into metrics, so the arithmetic lives in one tested place.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Options every workload receives from main().
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int threads = 1;  // executors (locality, census) or connections (serve)
  std::string out_dir;
  std::string serve_bin;
};

/// One recorded span: a timed call into a layer, made from the driver.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  double start_us = 0;
  double end_us = 0;
  long long rid = -1;  // request id (serve), -1 = none
  int tid = 0;
};

/// Keeps spans in memory while a traced phase runs; written out once at
/// the end. Disabled, a Scope costs one branch.
class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }
  std::uint64_t next_id();
  void record(Span s);
  /// Chrome trace_event JSON; args carry id, parent and rid.
  bool write(const std::string& path) const;

 private:
  Tracer() : t0_(Clock::now()) {}
  std::atomic<bool> enabled_{false};
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span. Nests through a thread-local parent stack; work handed to
/// another thread names its parent explicitly.
class Scope {
 public:
  explicit Scope(const char* name, long long rid = -1);
  Scope(const char* name, long long rid, std::uint64_t parent);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// This span's id (0 when tracing is off).
  std::uint64_t id() const { return span_.id; }

 private:
  bool active_ = false;
  Span span_;
};

/// The raw result of one run, serialised to raw.json.
struct Raw {
  std::string workload;
  int threads = 0;
  std::vector<double> setup_s;      // one entry per set-up repetition
  std::vector<double> round_s;      // untraced measured rounds
  std::vector<double> round_ops;    // operations completed in each of them
  std::vector<double> traced_round_s;
  std::vector<double> op_ms;        // per-operation latency samples
  std::string op_name;              // what one operation is
  std::uint64_t ops = 0;            // operations completed in round_s
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;         // errors, timeouts, refusals
  std::uint64_t failed_ops = 0;     // ... of them in the untraced rounds
  std::uint64_t wrong = 0;          // operations whose output was wrong
  double peak_rss_mb = 0;
  std::vector<std::pair<std::string, std::string>> checks;  // name, verdict
  std::map<std::string, double> counts;  // per-layer counts, per round
  /// Root span name -> how many rounds (or set-ups) the spans under it
  /// cover; run.py divides span totals by it.
  std::map<std::string, double> divisors;
  std::vector<std::string> notes;

  void check(const std::string& name, bool ok, const std::string& detail);
  bool write(const std::string& path) const;
};

/// Peak resident set of this process, MiB.
double self_peak_rss_mb();

/// Current value of the library's obs counter `name` (0 if unregistered).
double counter_value(const std::string& name);

/// Set-up samples per run. They are spread evenly over the untraced
/// phase, so they see the same machine state as the rounds rather than
/// the first milliseconds of a fresh process.
constexpr int kSetupSamples = 20;

/// Fewest per-operation samples an untraced phase records, however short
/// the run: the tail percentile needs more than stats.TAIL_BEYOND (10)
/// samples beyond it.
constexpr std::size_t kMinOpSamples = 11;

/// The measured phase every workload shares: one warm-up round (caches
/// fill, lazy set-up finishes), untraced rounds for the run's seconds
/// (half of them when traced) and until kMinOpSamples operations are
/// recorded, then traced rounds under a `root` span for the other half.
///  - `setup()` repeats the workload's set-up on throwaway state and
///    returns its duration in seconds; it runs kSetupSamples times.
///  - `round(record, parent)` runs one timed round and, when `record` is
///    set, adds its per-operation latencies to raw.op_ms and raw.ops;
///    `parent` is the round span's id, for spans opened on other threads.
///  - `settle(traced)` runs after each round, outside its timing, for
///    checks and replays.
/// Tracing stays on afterwards.
template <typename Setup, typename Round, typename Settle>
void measure(const Args& args, Raw& raw, const char* root, Setup&& setup,
             Round&& round, Settle&& settle) {
  round(false, 0);
  settle(false);
  const double untraced = args.trace ? args.seconds / 2 : args.seconds;
  const Clock::time_point t0 = Clock::now();
  for (double elapsed = 0;
       elapsed < untraced ||
       raw.op_ms.size() + raw.failed_ops < kMinOpSamples;
       elapsed = seconds_since(t0)) {
    if (raw.setup_s.size() < kSetupSamples &&
        elapsed >= untraced * static_cast<double>(raw.setup_s.size()) /
                       kSetupSamples) {
      raw.setup_s.push_back(setup());
    }
    const std::uint64_t ops0 = raw.ops;
    const Clock::time_point r0 = Clock::now();
    round(true, 0);
    raw.round_s.push_back(seconds_since(r0));
    raw.round_ops.push_back(static_cast<double>(raw.ops - ops0));
    settle(false);
  }
  while (raw.setup_s.size() < kSetupSamples) raw.setup_s.push_back(setup());
  if (!args.trace) return;
  Tracer::instance().enable(true);
  const Clock::time_point t1 = Clock::now();
  while (seconds_since(t1) < args.seconds / 2) {
    const Clock::time_point r0 = Clock::now();
    {
      const Scope s(root);
      round(false, s.id());
    }
    raw.traced_round_s.push_back(seconds_since(r0));
    settle(true);
  }
  raw.divisors[root] = static_cast<double>(raw.traced_round_s.size());
}

/// Rounds measure() ran, warm-up included: the divisor for counters read
/// before and after it.
inline double rounds_run(const Raw& raw) {
  return 1.0 + static_cast<double>(raw.round_s.size() +
                                   raw.traced_round_s.size());
}

int run_locality(const Args& args, Raw& raw);
int run_census(const Args& args, Raw& raw);
int run_serve(const Args& args, Raw& raw);

}  // namespace perfbench
