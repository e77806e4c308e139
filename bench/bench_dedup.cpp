// Dedup contention microbench: ParallelVisitor::dedup_stream
// (util/visitor.hpp, the scan behind every iso-free search) under
// insert-heavy (mostly fresh keys) and hit-heavy (few keys, endless
// re-encounters) mixes at 1/4/8/16 executors. Each executor fills its
// own map, lock-free because nothing is shared until the merge after
// the join; a run's time covers the scan, that merge and the sorted
// replay.
//
// Determinism: the thread sweep is FIXED (1/4/8/16) regardless of
// --threads, so the work done — and therefore stdout and every work
// counter — is byte-identical at any --threads setting; the CI smoke
// loop diffs exactly that. --threads is parsed only to arm the obs env
// hooks: each sweep step builds its own pool. Distinct-key counts and
// min-checksums go to stdout; insert rates go to stderr and
// BENCH_dedup.json.
#include <cstdint>
#include <cstdio>

#include "bench_util.hpp"
#include "util/hash_mix.hpp"
#include "util/parallel.hpp"
#include "util/visitor.hpp"

namespace {

using namespace wm;

constexpr std::uint64_t kInserts = 1 << 20;  // per run

struct Mix {
  const char* name;
  std::uint64_t keyspace;  // distinct keys the insert stream draws from
};

// Insert-heavy: ~half the stream is a first encounter. Hit-heavy: 256
// keys shared by a million inserts — pure merge contention.
constexpr Mix kMixes[] = {{"insert-heavy", kInserts / 2},
                         {"hit-heavy", 256}};

/// Deterministic insert stream: key of the i-th insert. Mixed so the
/// table does not see sequential-integer locality for free.
std::uint64_t key_at(std::uint64_t i, std::uint64_t keyspace) {
  return hash_mix(i % keyspace);
}

struct RunResult {
  std::uint64_t distinct = 0;
  std::uint64_t checksum = 0;  // XOR of per-key minima: order-free
  double ms = 0;
};

RunResult run_dedup(const Mix& mix, int threads) {
  ThreadPool pool(threads);
  RunResult r;
  const benchutil::Timer timer;
  ParallelVisitor(&pool).dedup_stream<std::uint64_t>(
      0, kInserts,
      [&](std::uint64_t i, auto&& emit) { emit(key_at(i, mix.keyspace)); },
      [&](std::uint64_t, std::uint64_t rep) {
        ++r.distinct;
        r.checksum ^= hash_mix(rep);
        return true;
      });
  r.ms = timer.ms();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::parse_threads(argc, argv);  // arm obs env hooks; sweep is fixed
  const benchutil::Timer total;

  std::printf("=== Dedup-table contention (lock-free) ===\n\n");
  std::printf("%zu inserts per run; fixed thread sweep 1/4/8/16\n\n",
              static_cast<std::size_t>(kInserts));
  std::printf("%-14s %-10s %-18s\n", "mix", "distinct", "min-checksum");

  double best_rate = 0;
  for (const Mix& mix : kMixes) {
    RunResult printed{};
    for (const int threads : {1, 4, 8, 16}) {
      const RunResult r = run_dedup(mix, threads);
      // Content is a pure function of the insert multiset, so every
      // thread count must agree: print it once per mix.
      if (threads == 1) {
        std::printf("%-14s %-10llu %016llx\n", mix.name,
                    static_cast<unsigned long long>(r.distinct),
                    static_cast<unsigned long long>(r.checksum));
        printed = r;
      } else if (r.distinct != printed.distinct ||
                 r.checksum != printed.checksum) {
        std::printf("MISMATCH at %s threads=%d\n", mix.name, threads);
        return 1;
      }
      const double rate =
          r.ms > 0 ? static_cast<double>(kInserts) / 1000.0 / r.ms : 0;
      std::fprintf(stderr,
                   "[perf]  %-14s threads=%-3d %10.2f ms  %8.2f Minserts/s\n",
                   mix.name, threads, r.ms, rate);
      if (rate > best_rate) best_rate = rate;
    }
  }

  std::printf("\nShape check: per-mix distinct counts and checksums agree\n");
  std::printf("across all thread counts.\n");

  const double wall = total.ms();
  benchutil::report_phase("total", wall);
  benchutil::write_bench_json("dedup",
                              static_cast<long long>(kInserts) * 2 * 4,
                              16, wall, best_rate * 1.0e6);
  return 0;
}
