#include "obs/trace.hpp"

#include "obs/json_escape.hpp"
#include "obs/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace wm::obs {

namespace {

struct TraceEvent {
  std::string name;
  std::int64_t begin_us;
  std::int64_t dur_us;
  std::uint32_t tid;
  std::uint64_t rid;  // request id at emit time, 0 = none
};

struct TraceState {
  std::mutex mu;
  bool active = false;
  std::string path;
  std::vector<TraceEvent> events;
  std::unordered_map<std::thread::id, std::uint32_t> tids;
};

std::atomic<bool> g_active{false};

TraceState& state() {
  // Leaked: trace_stop may run from an atexit handler after static
  // destruction of other translation units has begun.
  static TraceState* s = new TraceState();
  return *s;
}

std::uint32_t tid_for_current_thread(TraceState& s) {
  auto id = std::this_thread::get_id();
  auto it = s.tids.find(id);
  if (it == s.tids.end()) {
    it = s.tids.emplace(id, static_cast<std::uint32_t>(s.tids.size())).first;
  }
  return it->second;
}

}  // namespace

bool trace_enabled() noexcept {
  return g_active.load(std::memory_order_relaxed);
}

void trace_start(const std::string& path) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.active = true;
  s.path = path;
  s.events.clear();
  s.tids.clear();
  g_active.store(true, std::memory_order_relaxed);
}

bool trace_stop() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.active) return false;
  s.active = false;
  g_active.store(false, std::memory_order_relaxed);

  std::ofstream out(s.path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  std::string line;
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    const TraceEvent& e = s.events[i];
    line.clear();
    if (i) line += ',';
    line += "\n{\"name\":\"";
    append_json_escaped(line, e.name);
    line += "\",\"ph\":\"X\",\"ts\":";
    line += std::to_string(e.begin_us);
    line += ",\"dur\":";
    line += std::to_string(e.dur_us);
    line += ",\"pid\":1,\"tid\":";
    line += std::to_string(e.tid);
    if (e.rid != 0) {
      line += ",\"args\":{\"rid\":";
      line += std::to_string(e.rid);
      line += '}';
    }
    line += '}';
    out << line;
  }
  out << "\n]}\n";
  s.events.clear();
  s.tids.clear();
  return out.good();
}

void trace_init_from_env() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* path = std::getenv("WM_TRACE");
    if (path == nullptr || *path == '\0') return;
    trace_start(path);
    std::atexit([] { trace_stop(); });
  });
}

void trace_emit(std::string_view name,
                std::chrono::steady_clock::time_point begin,
                std::chrono::steady_clock::time_point end) {
  // The request-id context is read at emit time (scope exit), which is
  // still inside the handler's RequestIdScope — so every span of a
  // served request carries the same rid as its access-log line.
  const std::uint64_t rid = current_request_id();
  const auto us = [](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               t.time_since_epoch())
        .count();
  };
  const std::int64_t begin_us = us(begin);
  const std::int64_t dur_us = us(end) - begin_us;
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.active) return;  // trace stopped between scope entry and exit
  s.events.push_back(TraceEvent{std::string(name), begin_us, dur_us,
                                tid_for_current_thread(s), rid});
}

}  // namespace wm::obs
