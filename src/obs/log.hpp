// Structured logging for the observability layer: leveled, rate-limited
// JSON-lines to stderr or a file, with a per-thread request-id context.
//
// One log event is one JSON object on one line:
//
//   {"ts": "2026-08-09T12:34:56.789Z", "level": "info",
//    "event": "request", "rid": 42, "op": "run", "cache": "miss",
//    "ms": 1.234}
//
// Fixed head fields (ts, level, event, rid-when-set) come first, caller
// fields follow in insertion order, so lines are greppable and any JSON
// parser can fold them. The sink is stderr or a file; arming is opt-in:
//
//   WM_LOG=<file|stderr>  arm the sink (unset = logging fully off)
//   WM_LOG_LEVEL=<debug|info|warn|error>  threshold (default info)
//   WM_LOG_RATE=<lines/sec>  admission rate, 0 = unlimited (default 2000)
//   WM_SLOW_MS=<ms>  slow-request threshold used by the serve layer
//
// Rate limiting is a per-second admission window: past the budget,
// lines are dropped and counted; the first admitted write of a later
// second emits one {"event": "log_rate_limited", "dropped": N} notice.
// A disabled level or an unarmed sink costs one relaxed atomic load per
// event — cheap enough for hot paths.
//
// The *request-id context* is a thread-local set by RequestIdScope for
// the duration of one served request. Log lines emitted on that thread
// pick it up as "rid", and WM_SCOPE spans emitted inside the
// scope carry it as a trace arg — so an access-log line and the
// Chrome-trace spans of the same request join on one id.
//
// Configure with -DWM_OBS=OFF to compile every hook here to a no-op
// (events vanish, request ids read as 0, the sink never opens).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace wm::obs {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// "debug" / "info" / "warn" / "error".
const char* log_level_name(LogLevel level) noexcept;

#if !defined(WM_OBS_DISABLED)

// --- Request-id context -----------------------------------------------------

/// Next id from the process-wide monotonic request counter (first call
/// returns 1; 0 always means "no request context").
std::uint64_t next_request_id() noexcept;

/// The calling thread's current request id (0 = none).
std::uint64_t current_request_id() noexcept;

/// Binds a request id to the calling thread for the scope's lifetime;
/// nestable (the previous id is restored on exit). Log lines and trace
/// spans emitted on this thread inside the scope carry the id.
class RequestIdScope {
 public:
  explicit RequestIdScope(std::uint64_t rid) noexcept;
  ~RequestIdScope();
  RequestIdScope(const RequestIdScope&) = delete;
  RequestIdScope& operator=(const RequestIdScope&) = delete;

 private:
  std::uint64_t prev_;
};

// --- Sink control -----------------------------------------------------------

/// Arms the sink: "" or "stderr" logs to stderr, anything else is a
/// file path (truncated on open; a failed open leaves logging off).
/// Thread-safe; replaces any previously armed sink.
void log_open(const std::string& path);

/// Flushes and disarms. Idempotent.
void log_close();

/// Arms from $WM_LOG / $WM_LOG_LEVEL / $WM_LOG_RATE / $WM_SLOW_MS.
/// Only the first call can arm (obs::init_from_env's once semantics).
void log_init_from_env();

void log_set_level(LogLevel level) noexcept;

/// Admission budget in lines per second; 0 = unlimited.
void log_set_rate(double lines_per_sec) noexcept;

/// True iff the sink is armed and `level` clears the threshold — the
/// cheap guard to skip building expensive fields.
bool log_enabled(LogLevel level) noexcept;

/// Totals since arming (test hooks; also exported by the serve layer).
std::uint64_t log_lines_written() noexcept;
std::uint64_t log_lines_dropped() noexcept;

/// Slow-request threshold in milliseconds (0 = disabled). Read by the
/// serve layer for its slow-request warning line.
double slow_threshold_ms() noexcept;
void set_slow_threshold_ms(double ms) noexcept;

// --- Events -----------------------------------------------------------------

/// Builder for one log line; emits on destruction when the level was
/// enabled at construction. Field keys must be plain identifiers (they
/// are emitted unescaped); values are escaped.
class LogEvent {
 public:
  LogEvent(LogLevel level, std::string_view event);
  ~LogEvent();
  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;

  LogEvent& str(std::string_view key, std::string_view value);
  LogEvent& num(std::string_view key, std::int64_t value);
  LogEvent& num_u(std::string_view key, std::uint64_t value);
  LogEvent& dbl(std::string_view key, double value);
  LogEvent& boolean(std::string_view key, bool value);

 private:
  bool active_ = false;
  LogLevel level_ = LogLevel::kInfo;
  std::string body_;
};

#else  // WM_OBS_DISABLED

inline std::uint64_t next_request_id() noexcept { return 0; }
inline std::uint64_t current_request_id() noexcept { return 0; }

class RequestIdScope {
 public:
  explicit RequestIdScope(std::uint64_t) noexcept {}
  RequestIdScope(const RequestIdScope&) = delete;
  RequestIdScope& operator=(const RequestIdScope&) = delete;
};

inline void log_open(const std::string&) {}
inline void log_close() {}
inline void log_init_from_env() {}
inline void log_set_level(LogLevel) noexcept {}
inline void log_set_rate(double) noexcept {}
inline bool log_enabled(LogLevel) noexcept { return false; }
inline std::uint64_t log_lines_written() noexcept { return 0; }
inline std::uint64_t log_lines_dropped() noexcept { return 0; }
inline double slow_threshold_ms() noexcept { return 0; }
inline void set_slow_threshold_ms(double) noexcept {}

class LogEvent {
 public:
  LogEvent(LogLevel, std::string_view) {}
  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;
  LogEvent& str(std::string_view, std::string_view) { return *this; }
  LogEvent& num(std::string_view, std::int64_t) { return *this; }
  LogEvent& num_u(std::string_view, std::uint64_t) { return *this; }
  LogEvent& dbl(std::string_view, double) { return *this; }
  LogEvent& boolean(std::string_view, bool) { return *this; }
};

#endif  // WM_OBS_DISABLED

}  // namespace wm::obs
