// The `census` workload: the streaming graph census through the
// disk-backed certificate store (store::run_census over
// graph_census_space), n = 6, all graphs and connected graphs, with a
// fresh store directory every round.
//
// One round is both censuses. The seed picks the order in which the
// labelled candidates are visited (an affine bijection of the mask
// space), so batches, dedup hits and store spills differ per seed while
// the class counts stay pinned to OEIS A000088(6) = 156 and
// A001349(6) = 112. Canonical forms, dedup and the store do the work;
// bisimulation and core are never called.
//
// One operation is one round (run_census gives no finer unit short of
// pausing and resuming, which would add checkpoint work), so here
// ops_per_s and the printed, ungated p50_ms and tail_ms restate run_s
// over the same samples.
#include <filesystem>
#include <memory>
#include <string>

#include "common.hpp"
#include "graph/enumerate.hpp"
#include "store/census.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace wm;

constexpr int kN = 6;
constexpr std::uint64_t kExpected[2] = {156, 112};  // A000088(6), A001349(6)
constexpr const char* kTags[2] = {"all", "conn"};

/// graph_census_space(n, opts) visited in a seeded order: candidate i is
/// mask (a*i + b) mod count, a bijection since count is a power of two
/// and a is odd.
store::CensusSpace seeded_space(bool connected, std::uint64_t seed) {
  EnumerateOptions opts;
  opts.connected_only = connected;
  store::CensusSpace base = graph_census_space(kN, opts);
  Rng rng(seed);
  const std::uint64_t mask = base.count - 1;
  const std::uint64_t a = rng.next() | 1;
  const std::uint64_t b = rng.next();
  store::CensusSpace space = base;
  space.classify = [base, a, b, mask](std::uint64_t i) {
    return base.classify((a * i + b) & mask);
  };
  return space;
}

store::CensusOptions census_options(const std::string& dir) {
  // The cadence of bench/bench_census.cpp: small batches and a small
  // spill threshold, so every round seals, compacts and checkpoints.
  store::CensusOptions opts;
  opts.batch = 2048;
  opts.checkpoint_every = 4;
  opts.store.spill_threshold = 64;
  opts.store.compact_min_segments = 4;
  opts.checkpoint_path = dir + ".checkpoint";
  return opts;
}

}  // namespace

int run_census(const Args& args, Raw& raw) {
  raw.op_name = "census of both families";
  const std::string work = args.out_dir + "/census";
  // Set-up: both spaces, the pool and a fresh store per family.
  auto set_up = [&](store::CensusSpace (&spaces)[2],
                    std::unique_ptr<ThreadPool>& pool, const std::string& tag) {
    spaces[0] = seeded_space(false, args.seed);
    spaces[1] = seeded_space(true, args.seed);
    pool = std::make_unique<ThreadPool>(args.threads);
    for (int f = 0; f < 2; ++f) {
      const std::string dir = work + "/" + tag + "_" + kTags[f];
      std::filesystem::create_directories(dir);
      store::CertStore::open(dir, spaces[f].kind);
    }
  };
  auto remove = [&](const std::string& tag) {
    for (const char* family : kTags) {
      std::filesystem::remove_all(work + "/" + tag + "_" + family);
      std::filesystem::remove(work + "/" + tag + "_" + family + ".checkpoint");
    }
  };
  Tracer::instance().enable(args.trace);
  store::CensusSpace spaces[2];
  std::unique_ptr<ThreadPool> pool;
  {
    const Scope root("census.setup");
    set_up(spaces, pool, "setup");
  }
  raw.divisors["census.setup"] = 1;
  Tracer::instance().enable(false);
  auto setup = [&] {
    store::CensusSpace spare_spaces[2];
    std::unique_ptr<ThreadPool> spare_pool;
    remove("spare");
    const Clock::time_point t0 = Clock::now();
    set_up(spare_spaces, spare_pool, "spare");
    return seconds_since(t0);
  };

  int round_no = 0;
  auto round = [&](bool record, std::uint64_t) {
    const Clock::time_point t0 = Clock::now();
    for (int f = 0; f < 2; ++f) {
      const std::string dir = work + "/round_" + kTags[f];
      store::CensusResult r;
      {
        const Scope s("store.census");
        r = store::run_census(spaces[f], dir, pool.get(),
                              census_options(dir));
      }
      ++raw.attempted;
      if (!r.complete || r.classes != kExpected[f]) ++raw.wrong;
      if (round_no == 0) {
        raw.check(std::string("classes, ") + kTags[f] + " graphs n=6",
                  r.complete && r.classes == kExpected[f],
                  std::to_string(r.classes) + " (OEIS " +
                      (f == 0 ? "A000088: " : "A001349: ") +
                      std::to_string(kExpected[f]) + ")");
      }
    }
    ++round_no;
    if (record) {
      raw.op_ms.push_back(1000.0 * seconds_since(t0));
      ++raw.ops;
    }
  };

  const PoolTelemetry before = pool->telemetry();
  const double forms0 = counter_value("canonical.forms");
  const double fresh0 = counter_value("store.fresh_keys");
  const double spills0 = counter_value("store.spills");
  const double bytes0 = counter_value("store.bytes_written");
  measure(args, raw, "census.round", setup, round,
          [&](bool) { remove("round"); });
  raw.peak_rss_mb = self_peak_rss_mb();
  if (!args.trace) return 0;

  const double all_rounds = rounds_run(raw);
  const PoolTelemetry after = pool->telemetry();
  raw.counts["graph.canonical_forms"] =
      (counter_value("canonical.forms") - forms0) / all_rounds;
  raw.counts["store.fresh_keys"] =
      (counter_value("store.fresh_keys") - fresh0) / all_rounds;
  raw.counts["store.spills"] =
      (counter_value("store.spills") - spills0) / all_rounds;
  raw.counts["store.bytes"] =
      (counter_value("store.bytes_written") - bytes0) / all_rounds;
  raw.counts["util.pool_steals"] =
      static_cast<double>(after.steal_successes - before.steal_successes) /
      all_rounds;
  raw.counts["util.pool_idle_wakeups"] =
      static_cast<double>(after.idle_wakeups - before.idle_wakeups) /
      all_rounds;

  // One round's canonical-form work on one thread: classify every
  // candidate of both spaces (mask -> graph, admissibility, certificate).
  const Scope root("census.replay");
  raw.divisors["census.replay"] = 1;
  for (const store::CensusSpace& space : spaces) {
    const Scope s("graph.canonical");
    for (std::uint64_t i = 0; i < space.count; ++i) space.classify(i);
  }
  return 0;
}

}  // namespace perfbench
