// Duration histograms for the observability layer.
//
// A histogram is a set of log2 buckets over nanosecond durations:
// bucket i holds every duration d with bit_width(d) == i, i.e. the
// range [2^(i-1), 2^i - 1] (bucket 0 holds exactly 0 ns). Recording is
// one relaxed fetch_add into a per-thread shard — no locks, no
// allocation — so WM_SCOPE is safe in hot paths and under TSan.
// Reading merges the shards into a Summary (count / p50 / p90 / p99 /
// max): percentiles are bucket upper bounds, deterministic given the
// recorded multiset; the max is tracked exactly.
//
// Durations are *timing telemetry*, the same epistemic status as the
// kInfo counters of counters.hpp: they vary with hardware, load and
// thread count, so they are reported (the "timings" section of every
// BENCH_*.json) but must never enter the work-counter regression gate.
//
// WM_SCOPE("layer.phase") is the one phase primitive: it always records
// the block's duration here and, while a trace is armed (obs/trace.hpp),
// also emits a span of the same name. Configure with -DWM_OBS=OFF to
// compile it out entirely.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/trace.hpp"

namespace wm::obs {

/// Merged view of one histogram. Percentile semantics: p(q) is the
/// upper bound, in microseconds, of the bucket holding the sample of
/// rank ceil(q/100 * count) in the sorted multiset (0 when count == 0).
struct HistogramSummary {
  std::uint64_t count = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double max_us = 0;  // exact, not bucketed
};

/// Raw merged view of one histogram: per-bucket counts plus the exact
/// nanosecond sum and max. This is the window layer's snapshot unit —
/// bucket counts are monotone cumulative tallies, so the difference of
/// two snapshots is itself a valid histogram (the window's multiset).
struct HistogramBuckets {
  std::array<std::uint64_t, 64> counts{};
  std::uint64_t sum_ns = 0;
  std::uint64_t max_ns = 0;
  std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (const std::uint64_t c : counts) t += c;
    return t;
  }
};

/// Upper bound of log2 bucket `i` in microseconds (2^i - 1 ns; bucket 0
/// holds exactly 0 ns). The deterministic percentile representative.
double bucket_upper_us(int i) noexcept;

/// Summary of an arbitrary bucket-count multiset (e.g. a window delta).
/// max_us is b.max_ns when set, else the upper bound of the highest
/// non-empty bucket — a window cannot difference exact maxima.
HistogramSummary summary_from_buckets(const HistogramBuckets& b) noexcept;

class Histogram {
 public:
  static constexpr int kBuckets = 64;  // bit_width of a uint64 duration
  // Shards cut same-bucket contention when many workers record the same
  // phase; any thread -> shard mapping preserves the merged multiset.
  static constexpr int kShards = 8;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one duration. Relaxed atomics only; thread-safe.
  void record(std::uint64_t nanos) noexcept;

  /// Merges every shard into one summary (see HistogramSummary).
  HistogramSummary summary() const noexcept;

  /// Merges every shard into raw bucket counts + sum + max. This is the
  /// form window snapshots difference.
  HistogramBuckets buckets() const noexcept;

  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
    std::atomic<std::uint64_t> sum_ns{0};
  };
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Process-wide histogram registry, mirroring the counter Registry:
/// references are stable for the process lifetime, lookup is
/// mutex-protected and cached per call site by the WM_SCOPE macro.
class HistogramRegistry {
 public:
  static HistogramRegistry& instance();

  /// Returns the histogram registered under `name`, creating it on
  /// first use (dotted lowercase hierarchy: "decision.decide").
  Histogram& histogram(std::string_view name);

  /// Name -> merged summary for every registered histogram, sorted by
  /// name. Histograms that never recorded are included (count 0).
  std::map<std::string, HistogramSummary> snapshot() const;

  /// Name -> raw merged buckets, sorted by name — the window layer's
  /// capture unit and the metrics endpoint's bucket source.
  std::map<std::string, HistogramBuckets> bucket_snapshot() const;

  void reset();

 private:
  HistogramRegistry() = default;
  mutable std::mutex mu_;
  std::map<std::string, Histogram*, std::less<>> histograms_;
};

inline HistogramRegistry& histograms() { return HistogramRegistry::instance(); }

/// The registry snapshot as a JSON object body — the "timings" section
/// of every BENCH_*.json:
///   {"decision.decide": {"count": 3, "p50_us": 12.3, ...}, ...}
/// "{}" when nothing was recorded (e.g. under -DWM_OBS=OFF).
std::string timings_json();

/// RAII phase scope, usually spelled WM_SCOPE("layer.phase"). Reads the
/// steady clock once at entry and once at exit, records the duration
/// into `h`, and emits a span named `name` if a trace was armed at entry.
class Scope {
 public:
  Scope(Histogram& h, std::string_view name) noexcept
      : h_(h),
        name_(name),
        traced_(trace_enabled()),
        begin_(std::chrono::steady_clock::now()) {}
  ~Scope() {
    const auto end = std::chrono::steady_clock::now();
    h_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin_)
            .count()));
    if (traced_) trace_emit(name_, begin_, end);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Histogram& h_;
  std::string_view name_;
  bool traced_;
  std::chrono::steady_clock::time_point begin_;
};

}  // namespace wm::obs

#if !defined(WM_OBS_DISABLED)

/// Times (and, under WM_TRACE, traces) the rest of the enclosing block
/// as the phase `name`, a quoted dotted string: WM_SCOPE("decision.decide").
/// The histogram lookup runs once per call site; one scope per block.
#define WM_SCOPE(name)                                                  \
  ::wm::obs::Scope wm_obs_scope(                                        \
      []() -> ::wm::obs::Histogram& {                                   \
        static ::wm::obs::Histogram& site =                             \
            ::wm::obs::histograms().histogram(name);                    \
        return site;                                                    \
      }(),                                                              \
      name)

#else  // WM_OBS_DISABLED

#define WM_SCOPE(name) ((void)0)

#endif  // WM_OBS_DISABLED
