// Dedup-table contention microbench: the lock-free LockfreeMinMap
// (util/lockfree_set.hpp, the engine under every ParallelVisitor
// dedup_scan) under insert-heavy (mostly fresh keys) and hit-heavy (few
// keys, endless re-encounters) mixes at 1/4/8/16 threads.
//
// Determinism: the thread sweep is FIXED (1/4/8/16) regardless of
// --threads, so the work done — and therefore stdout and every work
// counter — is byte-identical at any --threads setting; the CI smoke
// loop diffs exactly that. --threads only sizes the pool used... for
// nothing here: each sweep step builds its own pool. Distinct-key counts
// and min-checksums go to stdout; insert rates go to stderr and
// BENCH_dedup.json.
#include <cstdint>
#include <cstdio>

#include "bench_util.hpp"
#include "util/hash_mix.hpp"
#include "util/lockfree_set.hpp"
#include "util/parallel.hpp"

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

RunResult run_lockfree(const Mix& mix, int threads) {
  LockfreeMinMap<std::uint64_t, std::uint64_t> table(
      static_cast<std::size_t>(mix.keyspace));
  ThreadPool pool(threads);
  const benchutil::Timer timer;
  pool.parallel_for(0, kInserts, [&](std::uint64_t i) {
    table.insert_min(key_at(i, mix.keyspace), i);
  });
  RunResult r;
  r.ms = timer.ms();
  for (const std::uint64_t v : table.values()) {
    ++r.distinct;
    r.checksum ^= hash_mix(v);
  }
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
      const RunResult r = run_lockfree(mix, threads);
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
