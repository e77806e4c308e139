// wm_census — the streaming, checkpointed census driver.
//
// Enumerates a candidate family (graphs, consistent port numberings of
// K_n, or Kripke models) modulo isomorphism through the disk-backed
// certificate store (src/store): memory stays flat in the family size,
// and a SIGKILLed run resumes from its last checkpoint with final
// counts identical to an uninterrupted run. The nightly census CI job
// drives this under --budget-secs + actions/cache; the kill/resume
// gate in ci.yml drives it under WM_CRASH_AFTER.
//
//   wm_census --kind graph --n 6 --store /tmp/census --checkpoint /tmp/cp
//             [--resume] [--threads N] [--batch B] [--checkpoint-every K]
//             [--budget-secs S] [--expect CLASSES] [--json out.json]
//
// Kinds: graph (all graphs mod iso, A000088), graph-conn (connected,
// A001349), port (consistent port numberings of K_n mod iso), kripke
// (models on n states, 1 prop, 1 modality, mod iso).
//
// Exit codes: 0 = census ok (complete or budget-paused), 2 = usage,
// 3 = --expect pin mismatch, 4 = structured store/checkpoint error.
//
// Env: WM_CRASH_AFTER=<k> SIGKILLs the process after the k-th
// checkpoint commit (test hook; see store/census.hpp).
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "graph/canonical.hpp"
#include "graph/enumerate.hpp"
#include "graph/generators.hpp"
#include "logic/kripke.hpp"
#include "obs/counters.hpp"
#include "obs/env.hpp"
#include "obs/manifest.hpp"
#include "port/port_numbering.hpp"
#include "store/census.hpp"
#include "util/parallel.hpp"

namespace {

using wm::store::CensusOptions;
using wm::store::CensusResult;
using wm::store::CensusSpace;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --kind graph|graph-conn|port|kripke --n N\n"
      "          (N <= 11 for graph kinds, 2..6 for port, <= 7 for kripke)\n"
      "          --store DIR --checkpoint FILE [--resume]\n"
      "          [--threads N] [--batch B] [--checkpoint-every K]\n"
      "          [--budget-secs S] [--spill-threshold T]\n"
      "          [--expect CLASSES] [--json FILE]\n",
      argv0);
  return 2;
}

std::uint64_t factorial(int k) {
  std::uint64_t f = 1;
  for (int i = 2; i <= k; ++i) f *= static_cast<std::uint64_t>(i);
  return f;
}

/// Permutation of [0, k) from its Lehmer index in [0, k!).
std::vector<int> permutation_from_index(int k, std::uint64_t idx) {
  std::vector<int> pool(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) pool[static_cast<std::size_t>(i)] = i;
  std::vector<int> perm;
  perm.reserve(static_cast<std::size_t>(k));
  for (int pos = k; pos > 0; --pos) {
    const std::uint64_t radix = factorial(pos - 1);
    const std::size_t pick = static_cast<std::size_t>(idx / radix);
    idx %= radix;
    perm.push_back(pool[pick]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return perm;
}

/// Consistent port numberings of K_n: one permutation of the n-1
/// neighbours per node (out == in), indexed in mixed radix base (n-1)!.
CensusSpace port_census_space(int n) {
  CensusSpace space;
  space.kind = "port-kn-n" + std::to_string(n);
  const std::uint64_t per_node = factorial(n - 1);
  space.count = 1;
  for (int v = 0; v < n; ++v) space.count *= per_node;
  space.classify = [n, per_node](std::uint64_t idx)
      -> std::optional<std::string> {
    const wm::Graph g = wm::complete_graph(n);
    std::vector<std::vector<int>> ports(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      const std::uint64_t code = idx % per_node;
      idx /= per_node;
      std::vector<int> perm = permutation_from_index(n - 1, code);
      for (int& p : perm) p += 1;  // ports are 1-based
      ports[static_cast<std::size_t>(v)] = std::move(perm);
    }
    const wm::PortNumbering p =
        wm::PortNumbering::from_permutations(g, ports, ports);
    return wm::canonical_certificate(p);
  };
  return space;
}

/// Kripke models on s states, 1 proposition, 1 modality: s*s relation
/// bits then s valuation bits, 2^(s^2+s) candidates.
CensusSpace kripke_census_space(int s) {
  CensusSpace space;
  space.kind = "kripke-n" + std::to_string(s);
  space.count = 1ULL << (s * s + s);
  space.classify = [s](std::uint64_t idx) -> std::optional<std::string> {
    const wm::Modality box[] = {{0, 0}};
    std::vector<wm::KripkeEdge> edges;
    for (int from = 0; from < s; ++from) {
      for (int to = 0; to < s; ++to) {
        if (idx & 1ULL << (from * s + to)) edges.push_back({box[0], from, to});
      }
    }
    wm::KripkeModel k = wm::KripkeModel::from_edges(s, 1, edges, box);
    for (int st = 0; st < s; ++st) {
      if (idx & 1ULL << (s * s + st)) k.set_prop(1, st);  // props are 1-based
    }
    return wm::canonical_certificate(k);
  };
  return space;
}

void append_json_field(std::string& out, const char* name, std::uint64_t v,
                       bool first = false) {
  if (!first) out += ", ";
  out += '"';
  out += name;
  out += "\": ";
  out += std::to_string(v);
}

long max_rss_kb() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

}  // namespace

int main(int argc, char** argv) {
  wm::obs::init_from_env();
  std::string kind_name, store_dir, checkpoint_path, json_path;
  int n = -1;
  int threads = 0;
  std::uint64_t expect = 0;
  bool have_expect = false;
  CensusOptions opts;
  opts.batch = 1u << 14;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--kind") {
      kind_name = value();
    } else if (arg == "--n") {
      n = std::atoi(value());
    } else if (arg == "--store") {
      store_dir = value();
    } else if (arg == "--checkpoint") {
      checkpoint_path = value();
    } else if (arg == "--resume") {
      opts.resume = true;
    } else if (arg == "--threads") {
      threads = std::atoi(value());
    } else if (arg == "--batch") {
      opts.batch = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--checkpoint-every") {
      opts.checkpoint_every = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--budget-secs") {
      opts.budget_secs = std::atof(value());
    } else if (arg == "--spill-threshold") {
      opts.store.spill_threshold = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--expect") {
      expect = std::strtoull(value(), nullptr, 10);
      have_expect = true;
    } else if (arg == "--json") {
      json_path = value();
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return usage(argv[0]);
    }
  }
  if (kind_name.empty() || n < 1 || store_dir.empty() ||
      checkpoint_path.empty()) {
    return usage(argv[0]);
  }
  if (const char* crash = std::getenv("WM_CRASH_AFTER")) {
    opts.crash_after = std::strtoull(crash, nullptr, 10);
  }
  opts.checkpoint_path = checkpoint_path;

  // Each space's candidate count must fit in 64 bits: 2^C(n,2) edge
  // masks up to n = 11, ((n-1)!)^n numberings up to n = 6, 2^(n^2+n)
  // models up to n = 7. n is bounded before any of that arithmetic.
  CensusSpace space;
  if (kind_name == "graph" || kind_name == "graph-conn") {
    if (n > 11) return usage(argv[0]);
    wm::EnumerateOptions eopts;
    eopts.connected_only = kind_name == "graph-conn";
    space = wm::graph_census_space(n, eopts);
  } else if (kind_name == "port") {
    if (n < 2 || n > 6) return usage(argv[0]);
    space = port_census_space(n);
  } else if (kind_name == "kripke") {
    if (n > 7) return usage(argv[0]);
    space = kripke_census_space(n);
  } else {
    std::fprintf(stderr, "unknown kind: %s\n", kind_name.c_str());
    return usage(argv[0]);
  }

  wm::ThreadPool pool(threads);
  CensusResult result;
  const auto start = std::chrono::steady_clock::now();
  try {
    result = wm::store::run_census(space, store_dir, &pool, opts);
  } catch (const wm::store::StoreError& e) {
    std::fprintf(stderr, "wm_census: %s\n", e.what());
    return 4;
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  // The "results" object is the cross-run determinism contract: every
  // field is a pure function of (kind, n, batch) — identical for an
  // uninterrupted run and any interrupted-then-resumed sequence. The
  // CI kill/resume gate diffs exactly this object. Process-local facts
  // (checkpoints this run, RSS, counters) live outside it.
  std::string results = "{\"kind\": \"" + result.kind + "\"";
  append_json_field(results, "n", static_cast<std::uint64_t>(n));
  append_json_field(results, "space", result.space);
  append_json_field(results, "scanned", result.scanned);
  append_json_field(results, "admissible", result.admissible);
  append_json_field(results, "classes", result.classes);
  append_json_field(results, "batches", result.batches);
  append_json_field(results, "store_keys",
                    result.store.sealed_keys + result.store.front_keys);
  results += ", \"complete\": ";
  results += result.complete ? "true" : "false";
  results += "}";

  // BENCH-convention envelope (name/n/threads/wall_ms/metrics/manifest)
  // so tools/bench_trend.py folds census runs into the nightly trend
  // table beside the benches. bench_diff.py never sees these files.
  char wall_buf[32];
  std::snprintf(wall_buf, sizeof wall_buf, "%.3f", wall_ms);
  std::string out = "{\"name\": \"census-" + result.kind + "\"";
  append_json_field(out, "n", static_cast<std::uint64_t>(n));
  append_json_field(out, "threads",
                    static_cast<std::uint64_t>(pool.num_threads()));
  out += ", \"wall_ms\": ";
  out += wall_buf;
  out += ", \"graphs_per_sec\": 0.0, \"results\": " + results;
  out += ", \"run\": {";
  append_json_field(out, "checkpoints", result.checkpoints, /*first=*/true);
  out += ", \"resumed\": ";
  out += result.resumed ? "true" : "false";
  append_json_field(out, "segments", result.store.segments);
  append_json_field(out, "generation", result.store.generation);
  append_json_field(out, "spills", result.store.spills);
  append_json_field(out, "compactions", result.store.compactions);
  append_json_field(out, "bytes_on_disk", result.store.bytes_on_disk);
  append_json_field(out, "max_rss_kb",
                    static_cast<std::uint64_t>(max_rss_kb()));
  out += "}";
  out += ", \"metrics\": {\"work\": " +
         wm::obs::counters_json(wm::obs::CounterKind::kWork);
  out += ", \"info\": " + wm::obs::counters_json(wm::obs::CounterKind::kInfo);
  out += "}, \"manifest\": " + wm::obs::manifest_json(pool.num_threads());
  out += "}\n";

  std::fputs(out.c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream f(json_path);
    f << out;
    if (!f) {
      std::fprintf(stderr, "wm_census: cannot write %s\n", json_path.c_str());
      return 4;
    }
  }

  std::fprintf(stderr,
               "census %s: %llu classes / %llu admissible / %llu scanned%s\n",
               result.kind.c_str(),
               static_cast<unsigned long long>(result.classes),
               static_cast<unsigned long long>(result.admissible),
               static_cast<unsigned long long>(result.scanned),
               result.complete ? "" : " [paused: budget]");

  if (have_expect && result.complete && result.classes != expect) {
    std::fprintf(stderr,
                 "wm_census: pin mismatch: expected %llu classes, got %llu\n",
                 static_cast<unsigned long long>(expect),
                 static_cast<unsigned long long>(result.classes));
    return 3;
  }
  if (have_expect && !result.complete) {
    std::fprintf(stderr,
                 "wm_census: note: --expect not checked (census paused)\n");
  }
  return 0;
}
