#include "obs/log.hpp"

namespace wm::obs {

const char* log_level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "info";
}

}  // namespace wm::obs

#if !defined(WM_OBS_DISABLED)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <mutex>

#include "obs/json_escape.hpp"

namespace wm::obs {

namespace {

/// Sink + rate-limiter state. Leaked (atexit-time log lines must not
/// race static destruction), mirroring the trace/registry singletons.
struct LogState {
  std::mutex mu;
  std::FILE* sink = nullptr;  // stderr or an owned file
  bool owns_sink = false;
  // Per-second admission window (steady clock).
  std::int64_t window_sec = -1;
  std::uint64_t admitted_in_window = 0;
  std::uint64_t dropped_in_window = 0;
};

std::atomic<bool> g_armed{false};
std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};
std::atomic<double> g_rate{2000.0};  // lines/sec, 0 = unlimited
std::atomic<double> g_slow_ms{0.0};
std::atomic<std::uint64_t> g_written{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::uint64_t> g_next_rid{0};

thread_local std::uint64_t t_current_rid = 0;

LogState& state() {
  static LogState* s = new LogState();
  return *s;
}

/// UTC wallclock with millisecond precision: 2026-08-09T12:34:56.789Z.
void append_timestamp(std::string& out) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  out += buf;
}

std::int64_t steady_seconds() noexcept {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Writes one complete line under the sink lock, applying the
/// per-second admission window. `line` has no trailing newline.
void write_line(const std::string& line) {
  LogState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.sink == nullptr) return;
  const double rate = g_rate.load(std::memory_order_relaxed);
  const std::int64_t now_sec = steady_seconds();
  if (now_sec != s.window_sec) {
    if (s.dropped_in_window > 0) {
      // One notice per window rollover so droppage is visible without
      // itself flooding the sink.
      std::string notice = "{\"ts\": \"";
      append_timestamp(notice);
      notice += "\", \"level\": \"warn\", \"event\": \"log_rate_limited\", "
                "\"dropped\": ";
      notice += std::to_string(s.dropped_in_window);
      notice += "}";
      std::fprintf(s.sink, "%s\n", notice.c_str());
      g_written.fetch_add(1, std::memory_order_relaxed);
    }
    s.window_sec = now_sec;
    s.admitted_in_window = 0;
    s.dropped_in_window = 0;
  }
  if (rate > 0 &&
      static_cast<double>(s.admitted_in_window) >= rate) {
    ++s.dropped_in_window;
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ++s.admitted_in_window;
  std::fprintf(s.sink, "%s\n", line.c_str());
  std::fflush(s.sink);
  g_written.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

// --- Request-id context -----------------------------------------------------

std::uint64_t next_request_id() noexcept {
  return g_next_rid.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t current_request_id() noexcept { return t_current_rid; }

RequestIdScope::RequestIdScope(std::uint64_t rid) noexcept
    : prev_(t_current_rid) {
  t_current_rid = rid;
}

RequestIdScope::~RequestIdScope() { t_current_rid = prev_; }

// --- Sink control -----------------------------------------------------------

void log_open(const std::string& path) {
  LogState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.owns_sink && s.sink != nullptr) std::fclose(s.sink);
  s.sink = nullptr;
  s.owns_sink = false;
  if (path.empty() || path == "stderr" || path == "-") {
    s.sink = stderr;
  } else {
    s.sink = std::fopen(path.c_str(), "w");
    s.owns_sink = s.sink != nullptr;
  }
  s.window_sec = -1;
  s.admitted_in_window = 0;
  s.dropped_in_window = 0;
  g_armed.store(s.sink != nullptr, std::memory_order_relaxed);
}

void log_close() {
  LogState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  g_armed.store(false, std::memory_order_relaxed);
  if (s.sink != nullptr) std::fflush(s.sink);
  if (s.owns_sink && s.sink != nullptr) std::fclose(s.sink);
  s.sink = nullptr;
  s.owns_sink = false;
}

void log_init_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    if (const char* slow = std::getenv("WM_SLOW_MS");
        slow != nullptr && *slow != '\0') {
      set_slow_threshold_ms(std::atof(slow));
    }
    if (const char* level = std::getenv("WM_LOG_LEVEL");
        level != nullptr && *level != '\0') {
      if (std::strcmp(level, "debug") == 0) log_set_level(LogLevel::kDebug);
      if (std::strcmp(level, "info") == 0) log_set_level(LogLevel::kInfo);
      if (std::strcmp(level, "warn") == 0) log_set_level(LogLevel::kWarn);
      if (std::strcmp(level, "error") == 0) log_set_level(LogLevel::kError);
    }
    if (const char* rate = std::getenv("WM_LOG_RATE");
        rate != nullptr && *rate != '\0') {
      log_set_rate(std::atof(rate));
    }
    const char* path = std::getenv("WM_LOG");
    if (path == nullptr || *path == '\0') return;
    log_open(path);
    std::atexit([] { log_close(); });
  });
}

void log_set_level(LogLevel level) noexcept {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

void log_set_rate(double lines_per_sec) noexcept {
  g_rate.store(lines_per_sec < 0 ? 0.0 : lines_per_sec,
               std::memory_order_relaxed);
}

bool log_enabled(LogLevel level) noexcept {
  return g_armed.load(std::memory_order_relaxed) &&
         static_cast<int>(level) >= g_level.load(std::memory_order_relaxed);
}

std::uint64_t log_lines_written() noexcept {
  return g_written.load(std::memory_order_relaxed);
}

std::uint64_t log_lines_dropped() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

double slow_threshold_ms() noexcept {
  return g_slow_ms.load(std::memory_order_relaxed);
}

void set_slow_threshold_ms(double ms) noexcept {
  g_slow_ms.store(ms < 0 ? 0.0 : ms, std::memory_order_relaxed);
}

// --- Events -----------------------------------------------------------------

LogEvent::LogEvent(LogLevel level, std::string_view event) {
  if (!log_enabled(level)) return;
  active_ = true;
  level_ = level;
  body_ = "{\"ts\": \"";
  append_timestamp(body_);
  body_ += "\", \"level\": \"";
  body_ += log_level_name(level);
  body_ += "\", \"event\": \"";
  append_json_escaped(body_, event);
  body_ += "\"";
  if (const std::uint64_t rid = current_request_id(); rid != 0) {
    body_ += ", \"rid\": ";
    body_ += std::to_string(rid);
  }
}

LogEvent::~LogEvent() {
  if (!active_) return;
  body_ += "}";
  write_line(body_);
}

LogEvent& LogEvent::str(std::string_view key, std::string_view value) {
  if (!active_) return *this;
  body_ += ", \"";
  body_ += key;
  body_ += "\": \"";
  append_json_escaped(body_, value);
  body_ += "\"";
  return *this;
}

LogEvent& LogEvent::num(std::string_view key, std::int64_t value) {
  if (!active_) return *this;
  body_ += ", \"";
  body_ += key;
  body_ += "\": ";
  body_ += std::to_string(value);
  return *this;
}

LogEvent& LogEvent::num_u(std::string_view key, std::uint64_t value) {
  if (!active_) return *this;
  body_ += ", \"";
  body_ += key;
  body_ += "\": ";
  body_ += std::to_string(value);
  return *this;
}

LogEvent& LogEvent::dbl(std::string_view key, double value) {
  if (!active_) return *this;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  body_ += ", \"";
  body_ += key;
  body_ += "\": ";
  body_ += buf;
  return *this;
}

LogEvent& LogEvent::boolean(std::string_view key, bool value) {
  if (!active_) return *this;
  body_ += ", \"";
  body_ += key;
  body_ += "\": ";
  body_ += value ? "true" : "false";
  return *this;
}

}  // namespace wm::obs

#endif  // WM_OBS_DISABLED
