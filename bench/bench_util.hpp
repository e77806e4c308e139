// Shared plumbing for the parallel-ported benches: --threads parsing,
// per-phase wall-clock reporting, and the machine-readable
// BENCH_<name>.json summary tracked across PRs.
//
// Convention: witness/result output goes to stdout and is byte-identical
// at any --threads setting; perf lines (wall-clock, graphs/sec) go to
// stderr, so diffing stdout across thread counts stays meaningful. The
// json carries a "metrics" object — "work" counters are deterministic
// across thread counts (tools/bench_diff.py gates on them), "info"
// counters are scheduling telemetry (informational only) — plus a
// "manifest" provenance block (obs/manifest.hpp) and a "timings"
// duration-histogram block (obs/histogram.hpp), both informational.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/counters.hpp"
#include "obs/env.hpp"
#include "obs/histogram.hpp"
#include "obs/manifest.hpp"
#include "util/parallel.hpp"

namespace wm::benchutil {

/// Parses `--threads N` (also `--threads=N`) from argv; any other
/// arguments are left for the bench. Returns default_thread_count() when
/// absent, which itself honours the WM_THREADS environment variable.
/// Also arms every env-driven observability hook (WM_TRACE phase
/// tracing, WM_PROGRESS heartbeats, the manifest start clock) — every
/// bench calls this first, so the env hooks need no per-bench code; the
/// examples call obs::init_from_env() themselves.
inline int parse_threads(int argc, char** argv) {
  obs::init_from_env();
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--threads" && i + 1 < argc) return std::atoi(argv[i + 1]);
    if (a.rfind("--threads=", 0) == 0) return std::atoi(a.c_str() + 10);
  }
  return default_thread_count();
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Per-phase perf line on stderr; pass items > 0 for a graphs/sec rate.
inline void report_phase(const char* label, double ms, std::size_t items = 0) {
  if (items > 0 && ms > 0) {
    std::fprintf(stderr, "[phase] %-28s %10.2f ms  %12.0f graphs/sec\n",
                 label, ms, 1000.0 * static_cast<double>(items) / ms);
  } else {
    std::fprintf(stderr, "[phase] %-28s %10.2f ms\n", label, ms);
  }
}

/// Writes BENCH_<name>.json in the working directory: the cross-PR perf
/// trajectory record. `n` is the bench's headline size parameter and
/// graphs_per_sec its headline throughput (0 if not meaningful). The
/// "metrics" object snapshots every registered counter: "work" values
/// are identical at any --threads setting (the regression gate input),
/// "info" values describe scheduling and vary run to run. "manifest"
/// carries run provenance (commit, compiler, flags, seed, wallclock)
/// and "timings" the per-phase duration histograms — both are
/// timing/environment-dependent, so tools/bench_diff.py ignores them;
/// tools/bench_trend.py folds them into the cross-run trend table.
inline void write_bench_json(const std::string& name, long long n,
                             int threads, double wall_ms,
                             double graphs_per_sec) {
  const std::string path = "BENCH_" + name + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"n\": %lld, \"threads\": %d, "
                 "\"wall_ms\": %.3f, \"graphs_per_sec\": %.3f, "
                 "\"metrics\": {\"work\": %s, \"info\": %s}, "
                 "\"manifest\": %s, \"timings\": %s}\n",
                 name.c_str(), n, threads, wall_ms, graphs_per_sec,
                 wm::obs::counters_json(wm::obs::CounterKind::kWork).c_str(),
                 wm::obs::counters_json(wm::obs::CounterKind::kInfo).c_str(),
                 wm::obs::manifest_json(threads).c_str(),
                 wm::obs::timings_json().c_str());
    std::fclose(f);
    std::fprintf(stderr, "[json]  wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "[json]  cannot write %s\n", path.c_str());
  }
}

}  // namespace wm::benchutil
