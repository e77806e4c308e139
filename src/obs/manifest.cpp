#include "obs/manifest.hpp"

#include <chrono>
#include <cstdlib>
#include <ctime>
#include <mutex>
#include <string_view>

#include "obs/json_escape.hpp"
#include "obs/trace.hpp"

// Baked in by src/obs/CMakeLists.txt at configure time; the fallbacks
// keep non-CMake compiles (e.g. IDE single-file checks) building.
#if !defined(WM_GIT_DESCRIBE)
#define WM_GIT_DESCRIBE "unknown"
#endif
#if !defined(WM_BUILD_TYPE)
#define WM_BUILD_TYPE "unknown"
#endif
#if !defined(WM_BUILD_FLAGS)
#define WM_BUILD_FLAGS ""
#endif

namespace wm::obs {

namespace {

std::chrono::system_clock::time_point g_start;
std::once_flag g_start_once;

std::string iso8601_utc(std::chrono::system_clock::time_point tp) {
  const std::time_t t = std::chrono::system_clock::to_time_t(tp);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  append_json_escaped(out, text);
  out += '"';
}

/// Env var as a JSON value: quoted string when set, null when not.
void append_env_json(std::string& out, const char* var) {
  const char* v = std::getenv(var);
  if (v == nullptr || *v == '\0') {
    out += "null";
  } else {
    append_json_string(out, v);
  }
}

bool obs_compiled_in() {
#if defined(WM_OBS_DISABLED)
  return false;
#else
  return true;
#endif
}

}  // namespace

void mark_process_start() {
  std::call_once(g_start_once, [] { g_start = std::chrono::system_clock::now(); });
}

const char* build_git_describe() { return WM_GIT_DESCRIBE; }

std::string manifest_json(int threads) {
  mark_process_start();  // fallback: start == first manifest touch
  std::string out = "{\"git\": ";
  append_json_string(out, WM_GIT_DESCRIBE);
  out += ", \"compiler\": ";
  append_json_string(out, __VERSION__);
  out += ", \"build_type\": ";
  append_json_string(out, WM_BUILD_TYPE);
  out += ", \"flags\": ";
  append_json_string(out, WM_BUILD_FLAGS);
  out += ", \"obs\": ";
  out += obs_compiled_in() ? "true" : "false";
  out += ", \"trace\": ";
  out += trace_enabled() ? "true" : "false";
  out += ", \"threads\": ";
  out += std::to_string(threads);
  out += ", \"seed\": ";
  append_env_json(out, "WM_SEED");
  out += ", \"progress\": ";
  append_env_json(out, "WM_PROGRESS");
  out += ", \"start\": ";
  append_json_string(out, iso8601_utc(g_start));
  out += ", \"end\": ";
  append_json_string(out, iso8601_utc(std::chrono::system_clock::now()));
  out += "}";
  return out;
}

std::string manifest_text(int threads) {
  mark_process_start();
  const char* seed = std::getenv("WM_SEED");
  const char* progress = std::getenv("WM_PROGRESS");
  std::string out;
  out += "git: ";
  out += WM_GIT_DESCRIBE;
  out += "\ncompiler: ";
  out += __VERSION__;
  out += "\nbuild: ";
  out += WM_BUILD_TYPE;
  out += " [";
  out += WM_BUILD_FLAGS;
  out += "]\nobs: ";
  out += obs_compiled_in() ? "on" : "off";
  out += ", trace: ";
  out += trace_enabled() ? "on" : "off";
  out += ", threads: ";
  out += std::to_string(threads);
  out += "\nseed: ";
  out += (seed && *seed) ? seed : "(unset)";
  out += ", progress: ";
  out += (progress && *progress) ? progress : "(unset)";
  out += "\nstart: ";
  out += iso8601_utc(g_start);
  return out;
}

}  // namespace wm::obs
