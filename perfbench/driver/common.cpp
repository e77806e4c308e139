#include "common.hpp"

#include <sys/resource.h>

#include <atomic>

#include "obs/counters.hpp"

namespace perfbench {

namespace {

thread_local std::vector<std::uint64_t> t_parents;
std::atomic<int> g_next_tid{0};
thread_local const int t_tid = ++g_next_tid;

void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_numbers(std::string& out, const std::vector<double>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    append_number(out, v[i]);
  }
  out += ']';
}

void append_map(std::string& out, const std::map<std::string, double>& m) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ", ";
    first = false;
    append_quoted(out, k);
    out += ": ";
    append_number(out, v);
  }
  out += '}';
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return ++last_id_;
}

void Tracer::record(Span s) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

bool Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"name\": ";
    append_quoted(out, s.name);
    out += ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(s.tid) +
           ", \"ts\": ";
    append_number(out, s.start_us);
    out += ", \"dur\": ";
    append_number(out, s.end_us - s.start_us);
    out += ", \"args\": {\"id\": " + std::to_string(s.id) +
           ", \"parent\": " + std::to_string(s.parent) +
           ", \"rid\": " + std::to_string(s.rid) + "}}";
  }
  out += "\n]}\n";
  return write_file(path, out);
}

Scope::Scope(const char* name, long long rid)
    : Scope(name, rid, t_parents.empty() ? 0 : t_parents.back()) {}

Scope::Scope(const char* name, long long rid, std::uint64_t parent) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  active_ = true;
  span_.id = t.next_id();
  span_.parent = parent;
  span_.name = name;
  span_.rid = rid;
  span_.tid = t_tid;
  t_parents.push_back(span_.id);
  span_.start_us = t.now_us();
}

Scope::~Scope() {
  if (!active_) return;
  Tracer& t = Tracer::instance();
  span_.end_us = t.now_us();
  t_parents.pop_back();
  t.record(std::move(span_));
}

void Raw::check(const std::string& name, bool ok, const std::string& detail) {
  checks.emplace_back(name, (ok ? "ok: " : "MISMATCH: ") + detail);
}

double counter_value(const std::string& name) {
  for (const auto kind : {wm::obs::CounterKind::kWork,
                          wm::obs::CounterKind::kInfo}) {
    const auto snap = wm::obs::registry().snapshot(kind);
    const auto it = snap.find(name);
    if (it != snap.end()) return static_cast<double>(it->second);
  }
  return 0;
}

bool Raw::write(const std::string& path) const {
  std::string out = "{\"workload\": ";
  append_quoted(out, workload);
  out += ", \"threads\": " + std::to_string(threads);
  out += ", \"op_name\": ";
  append_quoted(out, op_name);
  out += ", \"setup_s\": ";
  append_numbers(out, setup_s);
  out += ", \"round_s\": ";
  append_numbers(out, round_s);
  out += ", \"round_ops\": ";
  append_numbers(out, round_ops);
  out += ", \"traced_round_s\": ";
  append_numbers(out, traced_round_s);
  out += ", \"op_ms\": ";
  append_numbers(out, op_ms);
  out += ", \"ops\": " + std::to_string(ops);
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"failed_ops\": " + std::to_string(failed_ops);
  out += ", \"wrong\": " + std::to_string(wrong);
  out += ", \"peak_rss_mb\": ";
  append_number(out, peak_rss_mb);
  out += ", \"checks\": [";
  for (std::size_t i = 0; i < checks.size(); ++i) {
    if (i > 0) out += ", ";
    out += '[';
    append_quoted(out, checks[i].first);
    out += ", ";
    append_quoted(out, checks[i].second);
    out += ']';
  }
  out += "], \"counts\": ";
  append_map(out, counts);
  out += ", \"divisors\": ";
  append_map(out, divisors);
  out += ", \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    if (i > 0) out += ", ";
    append_quoted(out, notes[i]);
  }
  out += "]}\n";
  return write_file(path, out);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
