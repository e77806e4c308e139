// The `locality` workload: exact per-class locality (Section 2 (b)) of
// the three unique-solution problems over an exhaustive scope of small
// port-numbered graphs, shaped like bench/bench_locality.cpp but smaller.
//
// One round is the verdict table: 3 problems x 7 classes =
// 21 analyse_solvability calls, run as tasks on a ThreadPool (each call
// sequential). The seed drives the random port numberings. Traced runs
// add a replay of one round that times the steps analyse_solvability
// takes inside (Kripke views, the disjoint-union fold, the per-t
// refinements) on the same inputs, so its self time can be attributed.
// A check fails if the replay stops taking the library's steps: its
// min_rounds and refinement count must match a real call's.
#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "bisim/bisimulation.hpp"
#include "core/solvability.hpp"
#include "graph/enumerate.hpp"
#include "logic/kripke.hpp"
#include "obs/histogram.hpp"
#include "problems/catalogue.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace wm;

constexpr int kMaxN = 4;    // every graph on <= kMaxN nodes ...
constexpr int kDelta = 3;   // ... with max degree <= kDelta
constexpr int kRandom = 3;  // seeded random numberings per graph
constexpr int kMaxRounds = 64;
constexpr int kProblems = 3;
constexpr const char* kProblemNames[kProblems] = {
    "degree-parity", "isolated-node", "odd-odd (+thm13 witness)"};

using Scopes = std::array<std::vector<ScopedInstance>, kProblems>;

/// The table EXPERIMENTS.md pins: degree-parity and isolated-node take 0
/// rounds in every class; odd-odd takes 1 round in MB, VB, MV, VV and
/// VVc, 2 in SV (Theorem 4's overhead at its minimum), and is unsolvable
/// in SB once the Theorem 13 witness is in scope.
std::optional<int> expected_rounds(int problem, ProblemClass c) {
  if (problem < 2) return 0;
  if (c == ProblemClass::SB) return std::nullopt;
  return c == ProblemClass::SV ? 2 : 1;
}

Scopes build_scopes(std::uint64_t seed) {
  const Scope root("locality.setup");
  const ProblemPtr problems[kProblems] = {
      degree_parity_problem(), isolated_node_problem(), odd_odd_problem()};
  EnumerateOptions opts;
  opts.connected_only = false;
  opts.max_degree = kDelta;
  Scopes scopes;
  for (int p = 0; p < kProblems; ++p) {
    Rng rng(seed);
    for (int n = 1; n <= kMaxN; ++n) {
      std::vector<Graph> graphs;
      {
        const Scope s("graph.enumerate");
        enumerate_graphs(n, opts, [&](const Graph& g) {
          graphs.push_back(g);
          return true;
        });
      }
      for (const Graph& g : graphs) {
        std::vector<PortNumbering> numberings;
        {
          const Scope s("port.numbering");
          numberings.push_back(PortNumbering::identity(g));
          for (int r = 0; r < kRandom; ++r) {
            numberings.push_back(PortNumbering::random(g, rng));
          }
        }
        const Scope s("core.instance");
        for (PortNumbering& pn : numberings) {
          scopes[p].push_back(instance_for(*problems[p], std::move(pn)));
        }
      }
    }
    if (p == 2) {
      const Scope s("core.instance");
      scopes[p].push_back(instance_for(*problems[p], thm13_witness().numbering));
    }
  }
  return scopes;
}

/// Replays what analyse_solvability does for one (scope, class) with a
/// span around each step, in the order its sequential path takes them.
/// Returns the replayed min_rounds, which must equal the real call's.
std::optional<int> replay(const std::vector<ScopedInstance>& scope,
                          ProblemClass c, Raw& raw) {
  const Variant variant = kripke_variant_for(c);
  const bool graded = graded_logic_for(c);
  std::vector<KripkeModel> parts;
  std::vector<int> target;
  {
    const Scope s("logic.kripke");
    for (const ScopedInstance& inst : scope) {
      parts.push_back(kripke_from_graph(inst.numbering, variant, kDelta));
      target.insert(target.end(), inst.target.begin(), inst.target.end());
    }
  }
  KripkeModel joint(0, 0);
  {
    const Scope s("logic.union");
    for (const KripkeModel& k : parts) {
      joint = KripkeModel::disjoint_union(joint, k);
      raw.counts["logic.union_states_copied"] += joint.num_states();
    }
  }
  auto refine = [&](int t) {
    const Scope s("bisim.refine");
    Partition p = graded ? coarsest_graded_bisimulation(joint, t)
                         : coarsest_bisimulation(joint, t);
    raw.counts["bisim.refine_calls"] += 1;
    raw.counts["bisim.rounds"] += p.rounds;
    return p;
  };
  auto monochromatic = [&](const Partition& p) {
    std::vector<int> colour(static_cast<std::size_t>(p.num_blocks), -1);
    for (int v = 0; v < joint.num_states(); ++v) {
      int& col = colour[static_cast<std::size_t>(p.block[v])];
      if (col < 0) {
        col = target[static_cast<std::size_t>(v)];
      } else if (col != target[static_cast<std::size_t>(v)]) {
        return false;
      }
    }
    return true;
  };
  int mono_cap = -1;
  for (int t = 1; t <= kMaxRounds && mono_cap < 0; ++t) {
    if (refine(t).num_blocks == refine(t - 1).num_blocks) {
      refine(t);
      mono_cap = t;
    }
  }
  if (mono_cap < 0) {
    refine(-1);
    mono_cap = kMaxRounds;
  }
  for (int t = 0; t <= mono_cap; ++t) {
    if (monochromatic(refine(t))) return t;
  }
  return std::nullopt;
}

}  // namespace

int run_locality(const Args& args, Raw& raw) {
  raw.op_name = "analyse_solvability call";
  Tracer::instance().enable(args.trace);
  const Scopes scopes = build_scopes(args.seed);
  raw.divisors["locality.setup"] = 1;
  Tracer::instance().enable(false);
  auto setup = [&] {
    const Clock::time_point t0 = Clock::now();
    const Scopes again = build_scopes(args.seed);
    return seconds_since(t0);
  };

  // One task per table cell: (problem, class).
  std::vector<std::pair<int, ProblemClass>> tasks;
  for (int p = 0; p < kProblems; ++p) {
    for (const ProblemClass c : all_problem_classes()) tasks.emplace_back(p, c);
  }
  ThreadPool pool(args.threads);
  std::vector<std::optional<int>> verdict(tasks.size());
  std::vector<double> latency(tasks.size());

  auto round = [&](bool record, std::uint64_t parent) {
    pool.parallel_for(
        0, tasks.size(),
        [&](std::uint64_t i) {
          const auto [p, c] = tasks[i];
          const Clock::time_point t0 = Clock::now();
          {
            const Scope s("core.analyse", -1, parent);
            verdict[i] =
                analyse_solvability(scopes[static_cast<std::size_t>(p)], c,
                                    kDelta)
                    .min_rounds;
          }
          latency[i] = 1000.0 * seconds_since(t0);
        },
        1);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      ++raw.attempted;
      if (verdict[i] != expected_rounds(tasks[i].first, tasks[i].second)) {
        ++raw.wrong;
      }
      if (record) raw.op_ms.push_back(latency[i]);
    }
    if (record) raw.ops += tasks.size();
  };

  const PoolTelemetry before = pool.telemetry();
  measure(args, raw, "locality.round", setup, round, [](bool) {});
  raw.peak_rss_mb = self_peak_rss_mb();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto [p, c] = tasks[i];
    const std::optional<int> want = expected_rounds(p, c);
    const std::optional<int> got = verdict[i];
    auto show = [](std::optional<int> r) {
      return r ? std::to_string(*r) : std::string("--");
    };
    raw.check(std::string(kProblemNames[p]) + " in " + problem_class_name(c),
              got == want, show(got) + " rounds (pinned: " + show(want) + ")");
  }
  if (!args.trace) return 0;

  const PoolTelemetry after = pool.telemetry();
  const double rounds = rounds_run(raw);
  raw.counts["util.pool_steals"] =
      static_cast<double>(after.steal_successes - before.steal_successes) /
      rounds;
  raw.counts["util.pool_idle_wakeups"] =
      static_cast<double>(after.idle_wakeups - before.idle_wakeups) / rounds;
  // The replay must take the library's steps: per call, the same
  // min_rounds and as many refinements as the library's own bisim.refine
  // timing histogram records around a real call. That call, on this one
  // thread just before its replay, is what the steps' times are taken
  // from (core.analyse_serial).
  const obs::Histogram& refines = obs::histograms().histogram("bisim.refine");
  const Scope root("locality.replay");
  raw.divisors["locality.replay"] = 1;
  std::size_t drifted = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto [p, c] = tasks[i];
    const std::vector<ScopedInstance>& scope =
        scopes[static_cast<std::size_t>(p)];
    const std::uint64_t lib0 = refines.summary().count;
    {
      const Scope s("core.analyse_serial");
      analyse_solvability(scope, c, kDelta);
    }
    const double lib_calls =
        static_cast<double>(refines.summary().count - lib0);
    const double calls0 = raw.counts["bisim.refine_calls"];
    const bool same_verdict = replay(scope, c, raw) == verdict[i];
    const double calls = raw.counts["bisim.refine_calls"] - calls0;
    if (!same_verdict || calls != lib_calls) {
      ++drifted;
      raw.check("replay of " + std::string(kProblemNames[p]) + " in " +
                    problem_class_name(c),
                false,
                "replayed steps disagree with analyse_solvability (" +
                    std::to_string(static_cast<long long>(calls)) + " vs " +
                    std::to_string(static_cast<long long>(lib_calls)) +
                    " refinements)");
    }
  }
  raw.check("replay takes analyse_solvability's steps", drifted == 0,
            std::to_string(tasks.size() - drifted) + "/" +
                std::to_string(tasks.size()) +
                " calls agree on min_rounds and bisim.refine count");
  return 0;
}

}  // namespace perfbench
