// Phase tracing: nestable WM_SCOPE spans written as a Chrome
// `trace_event`-format JSON file (load it in chrome://tracing or
// https://ui.perfetto.dev).
//
// Tracing is off by default and costs a single relaxed atomic load per
// scope while off. Enable it either programmatically
// (`trace_start(path)` ... `trace_stop()`) or by setting `WM_TRACE=<file>`
// in the environment and calling `trace_init_from_env()` — the benches do
// this from benchutil::parse_threads, so `WM_TRACE=out.json bench_foo`
// just works. Events are buffered in memory under a mutex (tracing is an
// opt-in debugging tool, not a production hot path) and flushed on
// trace_stop() or at process exit.
//
// Spans emitted inside a RequestIdScope (obs/log.hpp) carry the request
// id as {"args": {"rid": N}}, so the Chrome-trace view of one served
// request joins with its structured access-log line on that id.
//
// Spans come from WM_SCOPE (obs/histogram.hpp), which names one phase
// for both its duration histogram and its span. Configure with
// -DWM_OBS=OFF to compile it out entirely.
#pragma once

#include <chrono>
#include <string>
#include <string_view>

namespace wm::obs {

/// True while a trace is being collected.
bool trace_enabled() noexcept;

/// Begins collecting trace events, to be written to `path` (Chrome
/// trace_event JSON) when the trace stops. Replaces any active trace.
void trace_start(const std::string& path);

/// Stops collecting and writes the buffered events. Returns true iff a
/// trace was active and its output file was written; a no-op call (no
/// active trace) and a write failure both return false.
bool trace_stop();

/// Starts a trace to $WM_TRACE if that variable is set and non-empty,
/// registering an atexit flush. Safe to call repeatedly; only the first
/// call can start the trace.
void trace_init_from_env();

/// Records one complete ("ph":"X") event spanning [begin, end) on the
/// calling thread's trace track, stamped with the current request id.
/// Emitted by obs::Scope (WM_SCOPE, obs/histogram.hpp).
void trace_emit(std::string_view name,
                std::chrono::steady_clock::time_point begin,
                std::chrono::steady_clock::time_point end);

}  // namespace wm::obs
