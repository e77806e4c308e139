// Observability layer: registry semantics, speculative suppression,
// trace JSON well-formedness, duration histograms, run manifests,
// progress heartbeats, and the determinism contract the CI regression
// gate relies on — work-counter totals identical at any thread count.
#include "obs/counters.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bisim/quotient.hpp"
#include "core/decision.hpp"
#include "graph/enumerate.hpp"
#include "graph/generators.hpp"
#include "logic/kripke.hpp"
#include "obs/env.hpp"
#include "obs/histogram.hpp"
#include "obs/json_escape.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "serve/json.hpp"
#include "port/port_numbering.hpp"
#include "problems/catalogue.hpp"
#include "util/parallel.hpp"

namespace wm {
namespace {

using obs::CounterKind;

// --- Registry -------------------------------------------------------------

TEST(ObsRegistry, CountersRegisterOnFirstUseAndSnapshotByKind) {
  obs::Counter& c = obs::registry().counter("obstest.alpha", CounterKind::kWork);
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(c.kind(), CounterKind::kWork);

  const auto work = obs::registry().snapshot(CounterKind::kWork);
  ASSERT_TRUE(work.count("obstest.alpha"));
  EXPECT_EQ(work.at("obstest.alpha"), 42u);
  // A work counter must not leak into the info snapshot (the regression
  // gate reads only "work"; pool telemetry only "info").
  EXPECT_FALSE(obs::registry().snapshot(CounterKind::kInfo)
                   .count("obstest.alpha"));
}

TEST(ObsRegistry, SameNameReturnsSameCounterAndFirstKindWins) {
  obs::Counter& a = obs::registry().counter("obstest.pin", CounterKind::kInfo);
  obs::Counter& b = obs::registry().counter("obstest.pin", CounterKind::kWork);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.kind(), CounterKind::kInfo);
}

TEST(ObsRegistry, RecordMaxIsAHighWaterMark) {
  obs::Counter& c = obs::registry().counter("obstest.hwm", CounterKind::kInfo);
  c.reset();
  c.record_max(7);
  c.record_max(3);  // lower: ignored
  EXPECT_EQ(c.value(), 7u);
  c.record_max(19);
  EXPECT_EQ(c.value(), 19u);
}

TEST(ObsRegistry, MacrosCacheTheSiteAndCount) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  obs::registry().counter("obstest.macro").reset();
  for (int i = 0; i < 100; ++i) WM_COUNT(obstest.macro);
  WM_COUNT_ADD(obstest.macro, 900);
  EXPECT_EQ(obs::registry().counter("obstest.macro").value(), 1000u);
#endif
}

// --- Speculative suppression ---------------------------------------------

TEST(ObsSpeculation, ScopesNestAndSuppressOnlyWorkCounters) {
  obs::Counter& work = obs::registry().counter("obstest.spec.work",
                                               CounterKind::kWork);
  obs::Counter& info = obs::registry().counter("obstest.spec.info",
                                               CounterKind::kInfo);
  work.reset();
  info.reset();
  EXPECT_FALSE(obs::speculation_suppressed());
  {
    obs::SpeculativeScope outer;
    EXPECT_TRUE(obs::speculation_suppressed());
    work.add();  // dropped
    info.add();  // info ignores suppression
    {
      obs::SpeculativeScope inner;
      EXPECT_TRUE(obs::speculation_suppressed());
      work.add();  // dropped
    }
    // Leaving the inner scope must NOT clear the outer suppression.
    EXPECT_TRUE(obs::speculation_suppressed());
    work.add();  // dropped
  }
  EXPECT_FALSE(obs::speculation_suppressed());
  work.add();  // counted
  EXPECT_EQ(work.value(), 1u);
  EXPECT_EQ(info.value(), 1u);
}

TEST(ObsSpeculation, SuppressionIsPerThread) {
  obs::Counter& c = obs::registry().counter("obstest.spec.thread",
                                            CounterKind::kWork);
  c.reset();
  obs::SpeculativeScope scope;  // suppresses THIS thread only
  ThreadPool pool(2);
  // With a 2-executor pool the calling thread participates in the scan
  // (suppressed) while the worker thread counts normally; every index is
  // executed exactly once, so the total is whatever the unsuppressed
  // thread picked up — at least zero, at most all. What must hold:
  // a fresh thread starts unsuppressed.
  bool worker_saw_suppressed = true;
  pool.submit([&] { worker_saw_suppressed = obs::speculation_suppressed(); });
  pool.parallel_for(0, 1, [](std::uint64_t) {});  // drains the submit
  EXPECT_FALSE(worker_saw_suppressed);
}

// --- Trace JSON -----------------------------------------------------------

/// Minimal JSON well-formedness scan: balanced {}/[] outside strings,
/// strings closed with legal escapes, no raw control characters.
/// (Unused when -DWM_OBS=OFF skips the trace round-trip test.)
[[maybe_unused]] bool json_well_formed(const std::string& s) {
  int depth = 0;
  bool in_string = false, escaped = false;
  for (const char ch : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
      } else if (static_cast<unsigned char>(ch) < 0x20) {
        return false;  // raw control character inside a string
      }
      continue;
    }
    switch (ch) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

[[maybe_unused]] std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ObsTrace, DisabledByDefaultAndScopesAreInert) {
  EXPECT_FALSE(obs::trace_enabled());
  { WM_SCOPE("obstest.inert"); }   // must not crash or emit
  EXPECT_FALSE(obs::trace_stop());  // nothing active to flush
}

TEST(ObsTrace, NestedScopesProduceWellFormedChromeTraceJson) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  const std::string path = ::testing::TempDir() + "wm_obs_trace.json";
  obs::trace_start(path);
  ASSERT_TRUE(obs::trace_enabled());
  {
    WM_SCOPE("outer");
    {
      WM_SCOPE("inner");
      { WM_SCOPE("needs escaping \"quotes\" and \\slashes\\ and\nnewline"); }
    }
  }
  // A scope on a pool worker lands on its own tid track.
  {
    ThreadPool pool(2);
    pool.parallel_for(0, 4, [](std::uint64_t) { WM_SCOPE("pooled"); });
  }
  ASSERT_TRUE(obs::trace_stop());
  EXPECT_FALSE(obs::trace_enabled());

  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(json_well_formed(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  for (const char* needle :
       {"\"outer\"", "\"inner\"", "\"pooled\"", "\"ph\":\"X\"",
        "needs escaping \\\"quotes\\\" and \\\\slashes\\\\ and\\nnewline"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle << "\n" << text;
  }
  std::remove(path.c_str());
#endif
}

// --- Parallel counter hammer (the TSan target) ----------------------------

TEST(ObsHammer, EightWorkersCountExactly) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  obs::Counter& work = obs::registry().counter("obstest.hammer",
                                               CounterKind::kWork);
  obs::Counter& info = obs::registry().counter("obstest.hammer.info",
                                               CounterKind::kInfo);
  work.reset();
  info.reset();
  ThreadPool pool(8);
  constexpr std::uint64_t kIters = 100000;
  pool.parallel_for(0, kIters, [](std::uint64_t) {
    WM_COUNT(obstest.hammer);
    WM_COUNT_INFO(obstest.hammer.info);
    WM_COUNT_MAX(obstest.hammer.hwm, 5);
  });
  EXPECT_EQ(work.value(), kIters);
  EXPECT_EQ(info.value(), kIters);
  EXPECT_EQ(obs::registry().counter("obstest.hammer.hwm").value(), 5u);
  // The pool's own telemetry is alive and self-consistent.
  const PoolTelemetry t = pool.telemetry();
  ASSERT_EQ(t.tasks_per_worker.size(), 8u);
  EXPECT_GE(t.steal_attempts, t.steal_successes);
#endif
}

// --- Duration histograms ---------------------------------------------------

TEST(ObsHistogram, BucketsAndPercentilesAreGolden) {
  // 100 samples of 1000 ns (bucket bit_width(1000) = 10, upper bound
  // 1023 ns = 1.023 us) plus 10 samples of 100000 ns (bucket 17, upper
  // bound 131071 ns = 131.071 us). Ranks: p50 -> 55, p90 -> 99 (both in
  // the first group), p99 -> 109 (second group). Max is exact.
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(1000);
  for (int i = 0; i < 10; ++i) h.record(100000);
  const obs::HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 110u);
  EXPECT_DOUBLE_EQ(s.p50_us, 1.023);
  EXPECT_DOUBLE_EQ(s.p90_us, 1.023);
  EXPECT_DOUBLE_EQ(s.p99_us, 131.071);
  EXPECT_DOUBLE_EQ(s.max_us, 100.0);

  h.reset();
  EXPECT_EQ(h.summary().count, 0u);
  EXPECT_DOUBLE_EQ(h.summary().max_us, 0.0);
}

TEST(ObsHistogram, ZeroAndTinyDurationsLandInTheLowestBuckets) {
  obs::Histogram h;
  h.record(0);  // bucket 0: upper bound 0
  const obs::HistogramSummary zero = h.summary();
  EXPECT_EQ(zero.count, 1u);
  EXPECT_DOUBLE_EQ(zero.p50_us, 0.0);
  EXPECT_DOUBLE_EQ(zero.max_us, 0.0);

  h.record(1);  // bucket 1: [1, 1], upper bound 1 ns = 0.001 us
  const obs::HistogramSummary one = h.summary();
  EXPECT_EQ(one.count, 2u);
  // Rank ceil(0.5 * 2) = 1 is the 0 ns sample; p99's rank 2 is the 1 ns.
  EXPECT_DOUBLE_EQ(one.p50_us, 0.0);
  EXPECT_DOUBLE_EQ(one.p99_us, 0.001);
  EXPECT_DOUBLE_EQ(one.max_us, 0.001);
}

TEST(ObsHistogram, RegistryReturnsStableReferences) {
  obs::Histogram& a = obs::histograms().histogram("obstest.hist.pin");
  obs::Histogram& b = obs::histograms().histogram("obstest.hist.pin");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.record(500);
  const auto snap = obs::histograms().snapshot();
  ASSERT_TRUE(snap.count("obstest.hist.pin"));
  EXPECT_EQ(snap.at("obstest.hist.pin").count, 1u);
}

TEST(ObsHistogram, ShardMergeMatchesSequentialRecording) {
  // The same multiset recorded sequentially and by 8 pool workers must
  // merge to the identical summary: the thread -> shard mapping may
  // scatter samples differently, but the merged multiset — and hence
  // every percentile — is invariant.
  auto nanos_for = [](std::uint64_t i) { return i * 37 + (i % 7) * 1000; };
  constexpr std::uint64_t kSamples = 20000;
  obs::Histogram seq;
  for (std::uint64_t i = 0; i < kSamples; ++i) seq.record(nanos_for(i));
  obs::Histogram par;
  {
    ThreadPool pool(8);
    pool.parallel_for(0, kSamples,
                      [&](std::uint64_t i) { par.record(nanos_for(i)); });
  }
  const obs::HistogramSummary a = seq.summary();
  const obs::HistogramSummary b = par.summary();
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.p50_us, b.p50_us);
  EXPECT_DOUBLE_EQ(a.p90_us, b.p90_us);
  EXPECT_DOUBLE_EQ(a.p99_us, b.p99_us);
  EXPECT_DOUBLE_EQ(a.max_us, b.max_us);
  EXPECT_EQ(a.count, kSamples);
}

TEST(ObsHistogram, ScopeRecordsOneSampleAndTimingsJsonIsWellFormed) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  obs::Histogram& h = obs::histograms().histogram("obstest.hist.scope");
  h.reset();
  const std::uint64_t before = h.summary().count;
  { WM_SCOPE("obstest.hist.scope"); }
  EXPECT_EQ(h.summary().count, before + 1);

  const std::string json = obs::timings_json();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"obstest.hist.scope\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos) << json;
#endif
}

TEST(ObsHistogram, TimingsJsonEscapesAndKeepsEveryName) {
  // A name with JSON metacharacters, and one longer than any fixed-size
  // line buffer, must both come back verbatim from a JSON parser; a
  // counter under the quoted name must too.
  const std::string quoted = "obstest.hist.\"q\" \\b\\\nnewline";
  const std::string longer = "obstest.hist." + std::string(187, 'x');
  ASSERT_EQ(longer.size(), 200u);
  for (const std::string& name : {quoted, longer}) {
    obs::Histogram& h = obs::histograms().histogram(name);
    h.reset();
    h.record(1500);
  }
  const serve::Json timings = serve::parse_json(obs::timings_json());
  for (const std::string& name : {quoted, longer}) {
    const serve::Json* entry = timings.find(name);
    ASSERT_NE(entry, nullptr) << name;
    ASSERT_NE(entry->find("count"), nullptr) << name;
    EXPECT_EQ(entry->find("count")->as_int(), 1) << name;
    ASSERT_NE(entry->find("max_us"), nullptr) << name;
    EXPECT_DOUBLE_EQ(entry->find("max_us")->as_double(), 1.5) << name;
  }
  obs::Counter& c = obs::registry().counter(quoted, CounterKind::kWork);
  c.reset();
  c.add(2);
  const serve::Json work =
      serve::parse_json(obs::counters_json(CounterKind::kWork));
  ASSERT_NE(work.find(quoted), nullptr);
  EXPECT_EQ(work.find(quoted)->as_int(), 2);
}

// --- Run manifest ----------------------------------------------------------

TEST(ObsJson, EscaperTable) {
  // The one escaper behind traces, logs, manifests and serve replies.
  struct Case {
    std::string in;
    std::string out;
  };
  const Case cases[] = {
      {"\"", "\\\""},
      {"\\", "\\\\"},
      {"\n", "\\n"},
      {"\r", "\\r"},
      {"\t", "\\t"},
      {std::string(1, '\x01'), "\\u0001"},
      {std::string(1, '\x1f'), "\\u001f"},
      {std::string(1, '\x7f'), std::string(1, '\x7f')},
      {"caf\xc3\xa9 \xe2\x88\x80x \xf0\x9f\x98\x80",
       "caf\xc3\xa9 \xe2\x88\x80x \xf0\x9f\x98\x80"},
      {"a\"b\\c\nd", "a\\\"b\\\\c\\nd"},
  };
  for (const Case& c : cases) {
    std::string out = "<";
    obs::append_json_escaped(out, c.in);
    EXPECT_EQ(out, "<" + c.out) << "input bytes: " << c.in.size();
    // What the escaper writes, the serve parser reads back unchanged.
    EXPECT_EQ(serve::parse_json("\"" + c.out + "\"").as_string(), c.in);
  }
}

TEST(ObsManifest, JsonIsWellFormedAndCarriesProvenance) {
  const std::string json = obs::manifest_json(4);
  EXPECT_TRUE(json_well_formed(json)) << json;
  for (const char* key :
       {"\"git\"", "\"compiler\"", "\"build_type\"", "\"flags\"", "\"obs\"",
        "\"trace\"", "\"threads\"", "\"seed\"", "\"progress\"", "\"start\"",
        "\"end\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
  EXPECT_NE(json.find("\"threads\": 4"), std::string::npos) << json;
}

TEST(ObsManifest, TextFormNamesTheSameFacts) {
  const std::string text = obs::manifest_text(2);
  for (const char* needle : {"git: ", "compiler: ", "threads: 2", "start: "}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle << "\n" << text;
  }
}

// --- Progress heartbeats ---------------------------------------------------

TEST(ObsProgress, SilentByDefault) {
  // Without progress_start / WM_PROGRESS a task must emit nothing: the
  // benches' stderr stays heartbeat-free unless a human opts in.
  ASSERT_FALSE(obs::progress_enabled());
  ::testing::internal::CaptureStderr();
  {
    obs::ProgressTask task("obstest.silent", 100);
    for (int i = 0; i < 100; ++i) task.tick();
#ifdef WM_OBS_DISABLED
    EXPECT_EQ(task.done(), 0u);  // ticks compile out entirely
#else
    EXPECT_EQ(task.done(), 100u);
#endif
  }
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(ObsProgress, HeartbeatPrintsProgressAndDoneLines) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  ::testing::internal::CaptureStderr();
  obs::progress_start(0.01);
  EXPECT_TRUE(obs::progress_enabled());
  {
    obs::ProgressTask task("obstest.beat", 1000);
    task.tick(250);
    task.tick(750);
    // The destructor prints the final line while the heartbeat runs, so
    // no sleep is needed for deterministic output.
  }
  obs::progress_stop();
  EXPECT_FALSE(obs::progress_enabled());
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("[progress] obstest.beat done 1000/1000"),
            std::string::npos)
      << err;
#endif
}

TEST(ObsProgress, TicksFromPoolWorkersSumExactly) {
  obs::ProgressTask task("obstest.pool", 50000);
  ThreadPool pool(8);
  pool.parallel_for(0, 50000, [&](std::uint64_t) { task.tick(); });
#ifdef WM_OBS_DISABLED
  EXPECT_EQ(task.done(), 0u);  // stubbed out entirely
#else
  EXPECT_EQ(task.done(), 50000u);
#endif
}

// --- The determinism contract the regression gate relies on ---------------

/// Runs `body` against a fresh pool of `threads` executors and returns
/// how much every work counter grew — the exact quantity bench_diff.py
/// gates on.
std::map<std::string, std::uint64_t> work_delta(
    int threads, const std::function<void(ThreadPool&)>& body) {
  const auto before = obs::registry().snapshot(CounterKind::kWork);
  ThreadPool pool(threads);
  body(pool);
  const auto after = obs::registry().snapshot(CounterKind::kWork);
  std::map<std::string, std::uint64_t> delta;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    const std::uint64_t base = it == before.end() ? 0 : it->second;
    if (value != base) delta[name] = value - base;
  }
  return delta;
}

void expect_thread_invariant(const std::function<void(ThreadPool&)>& body) {
#ifdef WM_OBS_DISABLED
  work_delta(1, body);  // still exercises the workload; nothing to compare
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  const auto seq = work_delta(1, body);
  EXPECT_FALSE(seq.empty());  // the workload must actually be instrumented
  const auto par = work_delta(8, body);
  EXPECT_EQ(seq, par);
#endif
}

TEST(ObsDeterminism, QuotientSearchWorkInvariantAcrossThreadCounts) {
  std::vector<PortNumbering> numberings;
  for_each_consistent_port_numbering(cycle_graph(4), [&](const PortNumbering& p) {
    numberings.push_back(p);
    return true;
  });
  ASSERT_FALSE(numberings.empty());
  expect_thread_invariant([&](ThreadPool& pool) {
    search_distinct_quotients(
        numberings.size(),
        [&](std::uint64_t i) {
          return kripke_from_graph(numberings[i], Variant::PlusPlus);
        },
        /*graded=*/false, &pool);
  });
}

TEST(ObsDeterminism, DecisionWorkInvariantAcrossThreadCounts) {
  const auto problem = leaf_in_star_problem();
  std::vector<PortNumbering> scope;
  for (int k = 2; k <= 3; ++k) {
    scope.push_back(PortNumbering::identity(star_graph(k)));
  }
  for (const ProblemClass c : {ProblemClass::SV, ProblemClass::VB}) {
    expect_thread_invariant([&](ThreadPool& pool) {
      DecisionOptions opts;
      opts.rounds = 1;
      opts.pool = &pool;
      decide_solvable(*problem, scope, c, opts);
    });
  }
}

TEST(ObsDeterminism, IsoFreeEnumerationWorkInvariantAcrossThreadCounts) {
  EnumerateOptions opts;
  expect_thread_invariant([&](ThreadPool& pool) {
    std::size_t reps = 0;
    enumerate_graphs_modulo_iso(
        5, opts,
        [&](const Graph&) {
          ++reps;
          return true;
        },
        &pool);
    EXPECT_GT(reps, 0u);
  });
}

// --- Init idempotence ------------------------------------------------------
// The footgun: a binary calling obs::init_from_env() itself AND using
// benchutil::parse_threads (which also calls it) used to depend on every
// constituent guarding itself. These pin the contract directly: however
// many times init runs, at most one heartbeat thread is ever launched.

TEST(ObsInit, RepeatedInitArmsAtMostOneHeartbeat) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  // gtest runs this in its own process (gtest_discover_tests), so
  // setting the env var and calling init twice models the
  // double-initialising binary exactly.
  ::setenv("WM_PROGRESS", "30", /*overwrite=*/1);
  const std::uint64_t before = obs::progress_heartbeat_launches();
  obs::init_from_env();
  obs::init_from_env();  // e.g. main() + benchutil::parse_threads
  const std::uint64_t after = obs::progress_heartbeat_launches();
  EXPECT_LE(after - before, 1u)
      << "double init_from_env launched a second heartbeat thread";
  obs::progress_stop();
  ::unsetenv("WM_PROGRESS");
#endif
}

TEST(ObsInit, RepeatedProgressStartLaunchesExactlyOnce) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  const std::uint64_t before = obs::progress_heartbeat_launches();
  obs::progress_start(30.0);
  obs::progress_start(30.0);  // second call must be a no-op
  obs::progress_start(30.0);
  const std::uint64_t after = obs::progress_heartbeat_launches();
  EXPECT_EQ(after - before, 1u);
  obs::progress_stop();
#endif
}

// --- Structured logging ----------------------------------------------------

#if !defined(WM_OBS_DISABLED)
namespace {
std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}
}  // namespace
#endif

TEST(ObsLog, LevelNamesAreStable) {
  EXPECT_STREQ(obs::log_level_name(obs::LogLevel::kDebug), "debug");
  EXPECT_STREQ(obs::log_level_name(obs::LogLevel::kInfo), "info");
  EXPECT_STREQ(obs::log_level_name(obs::LogLevel::kWarn), "warn");
  EXPECT_STREQ(obs::log_level_name(obs::LogLevel::kError), "error");
}

TEST(ObsLog, EventsAreParsableJsonLinesWithHeadFieldsFirst) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  const std::string path = ::testing::TempDir() + "wm_obs_log_lines.jsonl";
  obs::log_open(path);
  obs::log_set_level(obs::LogLevel::kDebug);
  obs::log_set_rate(0);
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kDebug));
  {
    obs::LogEvent(obs::LogLevel::kInfo, "unit \"quoted\"\n")
        .str("who", "tab\there")
        .num("neg", -3)
        .num_u("big", 1ull << 40)
        .dbl("ms", 1.5)
        .boolean("flag", true);
  }
  {
    obs::RequestIdScope rid(99);
    obs::LogEvent(obs::LogLevel::kWarn, "with_rid");
  }
  obs::log_close();
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kError));

  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  const serve::Json first = serve::parse_json(lines[0]);
  ASSERT_TRUE(first.is_object());
  // Head fields lead in fixed order so the lines grep well.
  EXPECT_EQ(first.members()[0].first, "ts");
  EXPECT_EQ(first.members()[1].first, "level");
  EXPECT_EQ(first.members()[2].first, "event");
  EXPECT_EQ(first.find("level")->as_string(), "info");
  EXPECT_EQ(first.find("event")->as_string(), "unit \"quoted\"\n");
  EXPECT_EQ(first.find("who")->as_string(), "tab\there");
  EXPECT_EQ(first.find("neg")->as_int(), -3);
  EXPECT_EQ(first.find("big")->as_int(), 1ll << 40);
  EXPECT_DOUBLE_EQ(first.find("ms")->as_double(), 1.5);
  EXPECT_TRUE(first.find("flag")->as_bool());
  EXPECT_EQ(first.find("rid"), nullptr);  // no request context
  const serve::Json second = serve::parse_json(lines[1]);
  EXPECT_EQ(second.find("level")->as_string(), "warn");
  ASSERT_NE(second.find("rid"), nullptr);
  EXPECT_EQ(second.find("rid")->as_int(), 99);
#endif
}

TEST(ObsLog, LevelThresholdFiltersEvents) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  const std::string path = ::testing::TempDir() + "wm_obs_log_level.jsonl";
  obs::log_open(path);
  obs::log_set_level(obs::LogLevel::kWarn);
  obs::log_set_rate(0);
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kInfo));
  EXPECT_TRUE(obs::log_enabled(obs::LogLevel::kWarn));
  obs::LogEvent(obs::LogLevel::kDebug, "dropped_debug");
  obs::LogEvent(obs::LogLevel::kInfo, "dropped_info");
  obs::LogEvent(obs::LogLevel::kError, "kept_error");
  obs::log_set_level(obs::LogLevel::kInfo);  // restore the default
  obs::log_close();
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("kept_error"), std::string::npos);
#endif
}

TEST(ObsLog, RateLimitDropsAndCounts) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  const std::string path = ::testing::TempDir() + "wm_obs_log_rate.jsonl";
  obs::log_open(path);
  obs::log_set_rate(3);
  const std::uint64_t written0 = obs::log_lines_written();
  const std::uint64_t dropped0 = obs::log_lines_dropped();
  for (int i = 0; i < 50; ++i) {
    obs::LogEvent(obs::LogLevel::kInfo, "flood").num("i", i);
  }
  const std::uint64_t written = obs::log_lines_written() - written0;
  const std::uint64_t dropped = obs::log_lines_dropped() - dropped0;
  // 3 admissions per steady-clock second; the burst may straddle one
  // second boundary, so allow two windows' worth plus a notice line.
  EXPECT_LE(written, 8u);
  EXPECT_GE(dropped, 42u);
  // Every event either wrote or dropped; written may also include
  // rollover notice lines, so the sum is at least the event count.
  EXPECT_GE(written + dropped, 50u);
  obs::log_set_rate(2000);
  obs::log_close();
#endif
}

TEST(ObsLog, RequestIdScopesNestAndRestore) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  EXPECT_EQ(obs::current_request_id(), 0u);
  const std::uint64_t a = obs::next_request_id();
  const std::uint64_t b = obs::next_request_id();
  EXPECT_GT(b, a);  // monotone, process-wide
  {
    obs::RequestIdScope outer(a);
    EXPECT_EQ(obs::current_request_id(), a);
    {
      obs::RequestIdScope inner(b);
      EXPECT_EQ(obs::current_request_id(), b);
    }
    EXPECT_EQ(obs::current_request_id(), a);
  }
  EXPECT_EQ(obs::current_request_id(), 0u);
#endif
}

TEST(ObsTrace, SpansCarryTheRequestIdAsArgs) {
#ifdef WM_OBS_DISABLED
  GTEST_SKIP() << "observability compiled out (-DWM_OBS=OFF)";
#else
  const std::string path = ::testing::TempDir() + "wm_obs_trace_rid.json";
  obs::trace_start(path);
  {
    obs::RequestIdScope rid(4242);
    WM_SCOPE("obstest.rid.inner");
  }
  { WM_SCOPE("obstest.noctx.span"); }
  ASSERT_TRUE(obs::trace_stop());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string trace = ss.str();
  // The span inside the scope carries the id; the one outside must not.
  const std::size_t inner = trace.find("obstest.rid.inner");
  ASSERT_NE(inner, std::string::npos);
  EXPECT_NE(trace.find("\"args\":{\"rid\":4242}", inner), std::string::npos)
      << trace;
  const std::size_t outside = trace.find("obstest.noctx.span");
  ASSERT_NE(outside, std::string::npos);
  const std::size_t line_end = trace.find('\n', outside);
  EXPECT_EQ(trace.substr(outside, line_end - outside).find("rid"),
            std::string::npos);
#endif
}

// --- Windowed views --------------------------------------------------------

TEST(ObsWindow, DeltaNeedsTwoCaptures) {
  obs::WindowRing ring;
  EXPECT_FALSE(ring.delta(60).valid);
  ring.capture();
  EXPECT_FALSE(ring.delta(60).valid);
  ring.capture();
  EXPECT_TRUE(ring.delta(60).valid);
  EXPECT_EQ(ring.captures(), 2u);
}

TEST(ObsWindow, BracketedWorkDeltaIsExact) {
  obs::Counter& c =
      obs::registry().counter("obstest.window.alpha", CounterKind::kWork);
  obs::window().capture();
  for (int i = 0; i < 7; ++i) c.add();
  obs::window().capture();
  // The global ring is monotone and this counter is bumped only here, so
  // however old the base snapshot is, the delta is exactly our 7.
  const obs::WindowDelta wd = obs::window().delta(3600.0);
  ASSERT_TRUE(wd.valid);
  ASSERT_TRUE(wd.work.count("obstest.window.alpha"));
  EXPECT_EQ(wd.work.at("obstest.window.alpha"), 7u);
  EXPECT_GT(wd.rate("obstest.window.alpha"), 0.0);
  EXPECT_EQ(wd.rate("obstest.window.no_such_counter"), 0.0);
}

TEST(ObsWindow, TimingDeltasSummariseLikeAFreshHistogram) {
  obs::Histogram& h = obs::histograms().histogram("obstest.window.hist");
  obs::window().capture();
  h.record(1000);  // bucket 10 (513..1023 ns? no: bit_width(1000)=10)
  h.record(1000);
  h.record(4000);  // bucket 12
  obs::window().capture();
  const obs::WindowDelta wd = obs::window().delta(3600.0);
  ASSERT_TRUE(wd.valid);
  ASSERT_TRUE(wd.timings.count("obstest.window.hist"));
  const obs::HistogramBuckets& b = wd.timings.at("obstest.window.hist");
  EXPECT_EQ(b.total(), 3u);
  EXPECT_EQ(b.sum_ns, 6000u);
  const obs::HistogramSummary s = obs::summary_from_buckets(b);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.p50_us, obs::bucket_upper_us(10));
  EXPECT_DOUBLE_EQ(s.p99_us, obs::bucket_upper_us(12));
  // max_ns cannot be differenced; the summary falls back to the highest
  // non-empty bucket's upper bound.
  EXPECT_DOUBLE_EQ(s.max_us, obs::bucket_upper_us(12));
}

TEST(ObsWindow, SummaryFromBucketsMatchesHistogramSummary) {
  obs::Histogram& h = obs::histograms().histogram("obstest.window.match");
  h.record(0);
  h.record(100);
  h.record(100000);
  const obs::HistogramSummary direct = h.summary();
  const obs::HistogramSummary via = obs::summary_from_buckets(h.buckets());
  EXPECT_EQ(direct.count, via.count);
  EXPECT_DOUBLE_EQ(direct.p50_us, via.p50_us);
  EXPECT_DOUBLE_EQ(direct.p90_us, via.p90_us);
  EXPECT_DOUBLE_EQ(direct.p99_us, via.p99_us);
  EXPECT_DOUBLE_EQ(direct.max_us, via.max_us);  // buckets() keeps max_ns
}

TEST(ObsWindow, SamplerCapturesPeriodicallyAndStopsCleanly) {
  const std::uint64_t before = obs::window().captures();
  obs::WindowSampler sampler(std::chrono::milliseconds(10));
  sampler.start();
  sampler.start();  // idempotent
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  sampler.stop();
  sampler.stop();  // idempotent
  const std::uint64_t after = obs::window().captures();
  EXPECT_GE(after - before, 2u);
}

TEST(ObsLog, ObsOffHooksAreNoOps) {
#ifdef WM_OBS_DISABLED
  // The whole point of -DWM_OBS=OFF: hooks exist, cost nothing, do
  // nothing. This block only compiles (and must pass) in that build.
  obs::log_open("/nonexistent/should-not-open");
  obs::LogEvent(obs::LogLevel::kError, "never").num("x", 1).str("k", "v");
  EXPECT_FALSE(obs::log_enabled(obs::LogLevel::kError));
  EXPECT_EQ(obs::next_request_id(), 0u);
  EXPECT_EQ(obs::current_request_id(), 0u);
  EXPECT_EQ(obs::log_lines_written(), 0u);
  EXPECT_EQ(obs::log_lines_dropped(), 0u);
  EXPECT_EQ(obs::slow_threshold_ms(), 0.0);
  obs::set_slow_threshold_ms(100.0);  // must not stick — it's a no-op
  EXPECT_EQ(obs::slow_threshold_ms(), 0.0);
  obs::log_close();
#else
  GTEST_SKIP() << "meaningful only under -DWM_OBS=OFF";
#endif
}

TEST(ObsInit, CountersJsonMatchesRegistrySnapshot) {
  obs::registry().counter("obstest.json.alpha", CounterKind::kWork).add(3);
  obs::registry().counter("obstest.json.beta", CounterKind::kWork).add(5);
  const std::string json = obs::counters_json(CounterKind::kWork);
  EXPECT_NE(json.find("\"obstest.json.alpha\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"obstest.json.beta\": 5"), std::string::npos) << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // Info counters stay out of the work snapshot.
  obs::registry().counter("obstest.json.info", CounterKind::kInfo).add(1);
  EXPECT_EQ(obs::counters_json(CounterKind::kWork).find("obstest.json.info"),
            std::string::npos);
}

}  // namespace
}  // namespace wm
