#include "obs/counters.hpp"

#include "obs/json_escape.hpp"

namespace wm::obs {

namespace {
thread_local bool g_suppressed = false;
}  // namespace

bool speculation_suppressed() noexcept { return g_suppressed; }

SpeculativeScope::SpeculativeScope() noexcept : prev_(g_suppressed) {
  g_suppressed = true;
}

SpeculativeScope::~SpeculativeScope() { g_suppressed = prev_; }

Registry& Registry::instance() {
  // Leaked singleton: counters are reachable from static-destruction-time
  // code paths (atexit trace flush), so the registry must outlive them.
  static Registry* r = new Registry();
  return *r;
}

Counter& Registry::counter(std::string_view name, CounterKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), new Counter(kind)).first;
  }
  return *it->second;
}

std::map<std::string, std::uint64_t> Registry::snapshot(
    CounterKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : counters_) {
    if (counter->kind() == kind) out.emplace(name, counter->value());
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->reset();
}

std::string counters_json(CounterKind kind) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : registry().snapshot(kind)) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    append_json_escaped(out, name);
    out += "\": ";
    out += std::to_string(value);
  }
  out += "}";
  return out;
}

}  // namespace wm::obs
