#include "obs/histogram.hpp"

#include "obs/json_escape.hpp"

#include <bit>
#include <charconv>
#include <cmath>

namespace wm::obs {

namespace {

/// Shard choice: a stable per-thread index, assigned round-robin so
/// concurrent recorders spread across shards. The mapping only affects
/// contention, never the merged multiset.
int shard_for_current_thread() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const int shard = static_cast<int>(
      next.fetch_add(1, std::memory_order_relaxed) % Histogram::kShards);
  return shard;
}

}  // namespace

/// Upper bound of bucket i in microseconds: the largest duration the
/// bucket can hold. Deterministic percentile representative.
double bucket_upper_us(int i) noexcept {
  if (i <= 0) return 0.0;
  if (i >= 64) i = 64;
  const double upper_ns = std::ldexp(1.0, i) - 1.0;  // 2^i - 1
  return upper_ns / 1000.0;
}

HistogramSummary summary_from_buckets(const HistogramBuckets& b) noexcept {
  HistogramSummary out;
  const std::uint64_t count = b.total();
  out.count = count;
  if (count == 0) return out;
  if (b.max_ns != 0) {
    out.max_us = static_cast<double>(b.max_ns) / 1000.0;
  } else {
    // Window deltas cannot difference exact maxima; fall back to the
    // upper bound of the highest non-empty bucket.
    for (int i = 63; i >= 0; --i) {
      if (b.counts[static_cast<std::size_t>(i)] != 0) {
        out.max_us = bucket_upper_us(i);
        break;
      }
    }
  }
  const auto percentile = [&](double q) {
    // Rank of the percentile sample in the sorted multiset, 1-based.
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q / 100.0 * static_cast<double>(count)));
    std::uint64_t seen = 0;
    for (int i = 0; i < 64; ++i) {
      seen += b.counts[static_cast<std::size_t>(i)];
      if (seen >= rank) return bucket_upper_us(i);
    }
    return bucket_upper_us(63);
  };
  out.p50_us = percentile(50.0);
  out.p90_us = percentile(90.0);
  out.p99_us = percentile(99.0);
  return out;
}

void Histogram::record(std::uint64_t nanos) noexcept {
  const int bucket = std::bit_width(nanos);  // 0 for 0, else floor(log2)+1
  Shard& shard = shards_[static_cast<std::size_t>(shard_for_current_thread())];
  shard.buckets[static_cast<std::size_t>(bucket)].fetch_add(
      1, std::memory_order_relaxed);
  shard.sum_ns.fetch_add(nanos, std::memory_order_relaxed);
  std::uint64_t cur = max_ns_.load(std::memory_order_relaxed);
  while (nanos > cur && !max_ns_.compare_exchange_weak(
                            cur, nanos, std::memory_order_relaxed)) {
  }
}

HistogramBuckets Histogram::buckets() const noexcept {
  HistogramBuckets out;
  for (const Shard& s : shards_) {
    for (int i = 0; i < kBuckets; ++i) {
      out.counts[static_cast<std::size_t>(i)] +=
          s.buckets[static_cast<std::size_t>(i)].load(
              std::memory_order_relaxed);
    }
    out.sum_ns += s.sum_ns.load(std::memory_order_relaxed);
  }
  out.max_ns = max_ns_.load(std::memory_order_relaxed);
  return out;
}

HistogramSummary Histogram::summary() const noexcept {
  return summary_from_buckets(buckets());
}

void Histogram::reset() noexcept {
  for (Shard& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum_ns.store(0, std::memory_order_relaxed);
  }
  max_ns_.store(0, std::memory_order_relaxed);
}

HistogramRegistry& HistogramRegistry::instance() {
  // Leaked singleton, like the counter Registry: summaries are read from
  // atexit-time code paths (bench json writers).
  static HistogramRegistry* r = new HistogramRegistry();
  return *r;
}

Histogram& HistogramRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), new Histogram()).first;
  }
  return *it->second;
}

std::map<std::string, HistogramSummary> HistogramRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, HistogramSummary> out;
  for (const auto& [name, h] : histograms_) out.emplace(name, h->summary());
  return out;
}

std::map<std::string, HistogramBuckets> HistogramRegistry::bucket_snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, HistogramBuckets> out;
  for (const auto& [name, h] : histograms_) out.emplace(name, h->buckets());
  return out;
}

void HistogramRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, h] : histograms_) h->reset();
}

std::string timings_json() {
  std::string out = "{";
  bool first = true;
  const auto field = [&out](const char* key, double v) {
    // Any microsecond count of a uint64 nanosecond duration prints in
    // at most 21 characters as %.3f (to_chars' fixed form, same text).
    char num[32];
    out += key;
    out.append(num, std::to_chars(num, num + sizeof num, v,
                                  std::chars_format::fixed, 3)
                        .ptr);
  };
  for (const auto& [name, s] : histograms().snapshot()) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    append_json_escaped(out, name);
    out += "\": {\"count\": " + std::to_string(s.count);
    field(", \"p50_us\": ", s.p50_us);
    field(", \"p90_us\": ", s.p90_us);
    field(", \"p99_us\": ", s.p99_us);
    field(", \"max_us\": ", s.max_us);
    out += '}';
  }
  out += "}";
  return out;
}

}  // namespace wm::obs
