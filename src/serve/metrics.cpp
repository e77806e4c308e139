#include "serve/metrics.hpp"

#include <cstdio>
#include <map>
#include <string_view>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/window.hpp"

namespace wm::serve {

namespace {

void family(std::string& out, std::string_view name, std::string_view help,
            std::string_view type) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void sample_u(std::string& out, std::string_view name, std::string_view labels,
              std::uint64_t value) {
  out += name;
  out += labels;
  out += ' ';
  out += std::to_string(value);
  out += '\n';
}

void sample_d(std::string& out, std::string_view name, std::string_view labels,
              double value) {
  out += name;
  out += labels;
  out += ' ';
  out += fmt(value);
  out += '\n';
}

/// {endpoint="run"} — endpoint names are dotted lowercase tokens, no
/// escaping needed.
std::string ep_label(std::string_view endpoint) {
  return "{endpoint=\"" + std::string(endpoint) + "\"}";
}

/// Emits one counter family whose series are the `prefix`-keyed entries
/// of the work snapshot, endpoint = key suffix. Skipped entirely when no
/// counter matches (a family with no samples is legal but noisy).
void counter_family(std::string& out,
                    const std::map<std::string, std::uint64_t>& work,
                    std::string_view prefix, std::string_view name,
                    std::string_view help) {
  bool have = false;
  for (const auto& [key, value] : work) {
    if (key.rfind(prefix, 0) != 0) continue;
    if (!have) {
      family(out, name, help, "counter");
      have = true;
    }
    sample_u(out, name, ep_label(key.substr(prefix.size())), value);
  }
}

}  // namespace

std::string metrics_exposition(const MemoCache::Stats& cache_stats,
                               double window_secs) {
  const auto work = obs::registry().snapshot(obs::CounterKind::kWork);
  const auto info = obs::registry().snapshot(obs::CounterKind::kInfo);
  const auto timings = obs::histograms().bucket_snapshot();

  std::string out;
  out.reserve(8192);

  // --- Serve request/cache counters -----------------------------------------
  counter_family(out, work, "serve.requests.", "serve_requests_total",
                 "Requests handled, by endpoint.");
  counter_family(out, work, "serve.cache_hits.", "serve_cache_hits_total",
                 "Memo-cache hits, by endpoint.");
  counter_family(out, work, "serve.cache_misses.", "serve_cache_misses_total",
                 "Memo-cache misses (computed), by endpoint.");

  // --- Memo-cache gauges and totals -----------------------------------------
  family(out, "serve_cache_entries", "Live memo-cache entries.", "gauge");
  sample_u(out, "serve_cache_entries", "", cache_stats.entries);
  family(out, "serve_cache_capacity", "Memo-cache entry bound.", "gauge");
  sample_u(out, "serve_cache_capacity", "", cache_stats.capacity);
  family(out, "serve_cache_evictions_total", "Memo-cache evictions.",
         "counter");
  sample_u(out, "serve_cache_evictions_total", "", cache_stats.evictions);
  family(out, "serve_cache_bypasses_total",
         "Memo-cache bypasses (cache full, every entry in flight).",
         "counter");
  sample_u(out, "serve_cache_bypasses_total", "", cache_stats.bypasses);

  // --- Request latency histograms -------------------------------------------
  // One family, endpoint = histogram name after "serve."; buckets are
  // cumulative as Prometheus requires, le bounds are the log2-ns bucket
  // upper bounds in seconds, emitted up to the highest non-empty bucket.
  {
    bool have = false;
    for (const auto& [name, b] : timings) {
      if (name.rfind("serve.", 0) != 0) continue;
      if (!have) {
        family(out, "serve_request_duration_seconds",
               "Request handling latency (log2-ns buckets).", "histogram");
        have = true;
      }
      const std::string ep = name.substr(6);
      int top = -1;
      for (int i = 0; i < 64; ++i) {
        if (b.counts[static_cast<std::size_t>(i)] != 0) top = i;
      }
      std::uint64_t cum = 0;
      for (int i = 0; i <= top; ++i) {
        cum += b.counts[static_cast<std::size_t>(i)];
        sample_u(out, "serve_request_duration_seconds_bucket",
                 "{endpoint=\"" + ep + "\",le=\"" +
                     fmt(obs::bucket_upper_us(i) / 1e6) + "\"}",
                 cum);
      }
      sample_u(out, "serve_request_duration_seconds_bucket",
               "{endpoint=\"" + ep + "\",le=\"+Inf\"}", b.total());
      sample_d(out, "serve_request_duration_seconds_sum", ep_label(ep),
               static_cast<double>(b.sum_ns) / 1e9);
      sample_u(out, "serve_request_duration_seconds_count", ep_label(ep),
               b.total());
    }
  }

  // --- Raw registries (engine, pool, store telemetry) -----------------------
  if (!work.empty()) {
    family(out, "wm_work_total",
           "Deterministic work counters (thread-count invariant).",
           "counter");
    for (const auto& [key, value] : work) {
      sample_u(out, "wm_work_total", "{counter=\"" + key + "\"}", value);
    }
  }
  if (!info.empty()) {
    family(out, "wm_info_total",
           "Scheduling-dependent info counters (pool and cache telemetry).",
           "counter");
    for (const auto& [key, value] : info) {
      sample_u(out, "wm_info_total", "{counter=\"" + key + "\"}", value);
    }
  }

  // --- Windowed view (info-kind: never gate on these) -----------------------
  const obs::WindowDelta wd = obs::window().delta(window_secs);
  family(out, "wm_window_seconds",
         "Actual span of the rolling window below.", "gauge");
  sample_d(out, "wm_window_seconds", "", wd.valid ? wd.seconds : 0.0);
  if (wd.valid && wd.seconds > 0) {
    bool have = false;
    for (const auto& [key, value] : wd.work) {
      if (key.rfind("serve.requests.", 0) != 0) continue;
      if (!have) {
        family(out, "wm_window_requests_per_second",
               "Windowed request rate, by endpoint.", "gauge");
        have = true;
      }
      sample_d(out, "wm_window_requests_per_second",
               ep_label(key.substr(sizeof("serve.requests.") - 1)),
               static_cast<double>(value) / wd.seconds);
    }
    have = false;
    for (const auto& [name, b] : wd.timings) {
      if (name.rfind("serve.", 0) != 0 || b.total() == 0) continue;
      if (!have) {
        family(out, "wm_window_request_duration_seconds",
               "Windowed latency quantiles (bucket upper bounds).", "gauge");
        have = true;
      }
      const obs::HistogramSummary s = obs::summary_from_buckets(b);
      const std::string ep = name.substr(6);
      sample_d(out, "wm_window_request_duration_seconds",
               "{endpoint=\"" + ep + "\",quantile=\"0.5\"}", s.p50_us / 1e6);
      sample_d(out, "wm_window_request_duration_seconds",
               "{endpoint=\"" + ep + "\",quantile=\"0.9\"}", s.p90_us / 1e6);
      sample_d(out, "wm_window_request_duration_seconds",
               "{endpoint=\"" + ep + "\",quantile=\"0.99\"}", s.p99_us / 1e6);
    }
  }
  return out;
}

}  // namespace wm::serve
