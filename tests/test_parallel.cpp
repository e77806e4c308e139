#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"
#include "port/port_numbering.hpp"
#include "runtime/engine.hpp"
#include "transform/simulations.hpp"
#include "util/rng.hpp"

namespace wm {
namespace {

TEST(ThreadPool, ParallelForCoversRangeOnce) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(), [&](std::uint64_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, FindFirstReturnsLowestWitnessAtAnyThreadCount) {
  // Hits at 113, 500, 501, ...: every thread count must report 113, even
  // though higher chunks may be scanned first by other workers.
  auto pred = [](std::uint64_t i) { return i == 113 || i >= 500; };
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (int rep = 0; rep < 20; ++rep) {
      const auto hit = pool.parallel_find_first(0, 4096, pred, /*chunk=*/7);
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(*hit, 113u) << "threads=" << threads;
    }
  }
}

TEST(ThreadPool, FindFirstMissesReturnNullopt) {
  ThreadPool pool(4);
  const auto hit =
      pool.parallel_find_first(0, 1000, [](std::uint64_t) { return false; });
  EXPECT_FALSE(hit.has_value());
}

TEST(ThreadPool, FindFirstEmptyRange) {
  ThreadPool pool(2);
  EXPECT_FALSE(
      pool.parallel_find_first(5, 5, [](std::uint64_t) { return true; })
          .has_value());
}

TEST(ThreadPool, FindFirstEmptyAndReversedRangesNeverCallThePredicate) {
  // Regression: an empty span must short-circuit to nullopt before any
  // chunk-size arithmetic — including begin > end and every pool size /
  // explicit chunk combination.
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    for (const std::uint64_t chunk : {std::uint64_t{0}, std::uint64_t{1},
                                      std::uint64_t{64}}) {
      for (const auto& [begin, end] :
           {std::pair<std::uint64_t, std::uint64_t>{0, 0},
            {7, 7},
            {10, 3}}) {
        bool called = false;
        const auto hit = pool.parallel_find_first(
            begin, end,
            [&](std::uint64_t) {
              called = true;
              return true;
            },
            chunk);
        EXPECT_FALSE(hit.has_value())
            << "threads=" << threads << " chunk=" << chunk << " ["
            << begin << "," << end << ")";
        EXPECT_FALSE(called);
      }
    }
  }
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(0, 100,
                          [](std::uint64_t i) {
                            if (i == 37) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // The pool stays usable after a failed job.
    std::atomic<int> count{0};
    pool.parallel_for(0, 50, [&](std::uint64_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(ThreadPool, SubmittedTasksRunEventually) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor drains
  EXPECT_EQ(ran.load(), 20);
}

// --- Re-entrancy of the execution engine ----------------------------------

TEST(ParallelExecution, OneMachineManyGraphsMatchesSequential) {
  // A Vector-probe machine wrapped by the Theorem 8 transformer — the
  // layered simulation state is the stress case for const-safety.
  auto probe = std::make_shared<LambdaMachine>();
  probe->cls = AlgebraicClass::vector();
  probe->init_fn = [](int d) {
    return Value::triple(Value::str("x"), Value::integer(2), Value::integer(d));
  };
  probe->stopping_fn = [](const Value& s) { return s.is_int(); };
  probe->message_fn = [](const Value& s, int) { return s.at(2); };
  probe->transition_fn = [](const Value& s, const Value& inbox, int) {
    std::int64_t acc = 0;
    for (const Value& v : inbox.items()) {
      if (!v.is_unit()) acc += v.as_int();
    }
    if (s.at(1).as_int() == 1) return Value::integer(acc);
    return Value::triple(Value::str("x"), Value::integer(1),
                         Value::integer(acc));
  };
  const auto machine = to_multiset_machine(probe);

  Rng rng(42);
  std::vector<PortNumbering> instances;
  for (int t = 0; t < 24; ++t) {
    const Graph g = random_connected_graph(8, 4, 4, rng);
    instances.push_back(PortNumbering::random(g, rng));
  }
  std::vector<std::vector<Value>> sequential;
  for (const PortNumbering& p : instances) {
    sequential.push_back(execute(*machine, p).final_states);
  }

  ThreadPool pool(8);
  std::vector<ExecutionContext> ctxs(
      static_cast<std::size_t>(pool.num_threads()));
  std::vector<std::vector<Value>> parallel(instances.size());
  pool.parallel_chunks(
      0, instances.size(),
      [&](std::uint64_t lo, std::uint64_t hi, int worker) {
        ExecutionContext& ctx = ctxs[static_cast<std::size_t>(worker)];
        for (std::uint64_t i = lo; i < hi; ++i) {
          parallel[i] = execute(*machine, instances[i], ctx).final_states;
        }
      },
      1);
  EXPECT_EQ(parallel, sequential);
}

}  // namespace
}  // namespace wm
