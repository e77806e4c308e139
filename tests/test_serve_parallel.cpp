// Concurrency battery for the serve layer (TSan tier):
//
//  - *Hammer*: N client threads fire an identical fixed request mix at
//    one Service. The single-flight cache makes hit/miss tallies a
//    function of the mix alone — total - distinct hits at ANY client
//    count — so the cache's hit/miss tallies must come out identical
//    for 8 and 16 clients. This is the determinism contract that lets
//    the serve.cache_hits.* work counters, which count the same
//    outcomes, live alongside the library's work counters.
//  - *Eviction freshness*: a deliberately tiny cache under concurrent
//    overlapping keys must never cross-serve blobs between keys.
//  - *Drain*: a request whose bytes arrived before request_stop() gets
//    its reply before the connection closes; wait() then terminates.
//  - *Hostile clients*: a 200 KB formula line gets `bad_formula` and the
//    connection goes on answering; hundreds of sequential connections
//    leave the daemon's address space flat; the connection past the cap
//    gets one `busy` line and EOF while the others keep being served.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace wm::serve {
namespace {

/// The fixed request mix: `distinct` structurally different requests
/// (path lengths), `total` requests round-robined over client threads.
std::vector<std::string> request_mix(int distinct, int total) {
  std::vector<std::string> mix;
  mix.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    const int n = 2 + (i % distinct);
    std::string edges = "[";
    for (int v = 0; v + 1 < n; ++v) {
      if (v > 0) edges += ", ";
      edges += '[';
      edges += std::to_string(v);
      edges += ", ";
      edges += std::to_string(v + 1);
      edges += ']';
    }
    edges += "]";
    mix.push_back(R"({"op": "run", "machine": "degree-parity", "graph": )"
                  R"({"n": )" +
                  std::to_string(n) + R"(, "edges": )" + edges + "}}");
  }
  return mix;
}

/// Runs the mix over `clients` threads (slice c takes indices ≡ c) and
/// returns the (hits, misses) of the service's memo-cache. The cache's
/// own tallies exist in every build, also with observability off.
std::pair<std::uint64_t, std::uint64_t> hammer(int clients, int distinct,
                                               int total) {
  Service service;  // fresh cache per run, so its tallies start at zero
  const std::vector<std::string> mix = request_mix(distinct, total);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = static_cast<std::size_t>(c); i < mix.size();
           i += static_cast<std::size_t>(clients)) {
        const std::string reply = service.handle_line(mix[i]);
        const Json j = parse_json(reply);
        if (j.find("ok") == nullptr || !j.find("ok")->as_bool()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const MemoCache::Stats stats = service.cache().stats();
  return {stats.hits, stats.misses};
}

TEST(ServeParallel, CacheHitCountersAreClientCountInvariant) {
  constexpr int kDistinct = 6;
  constexpr int kTotal = 240;
  const auto [hits8, misses8] = hammer(8, kDistinct, kTotal);
  const auto [hits16, misses16] = hammer(16, kDistinct, kTotal);
  // Single flight pins the split exactly: one miss per distinct key —
  // whether the other requesters found the entry kReady or waited on
  // the cv, both count as hits — so the tallies are not merely equal
  // across client counts but equal to the closed form.
  EXPECT_EQ(misses8, static_cast<std::uint64_t>(kDistinct));
  EXPECT_EQ(misses16, static_cast<std::uint64_t>(kDistinct));
  EXPECT_EQ(hits8, static_cast<std::uint64_t>(kTotal - kDistinct));
  EXPECT_EQ(hits16, static_cast<std::uint64_t>(kTotal - kDistinct));
}

TEST(ServeParallel, EvictionNeverServesStaleBytes) {
  // Cache smaller than the working set: constant churn. Every reply
  // must still carry the right output vector for ITS path length —
  // a cross-served blob would give the wrong vector size or parity
  // pattern immediately.
  ServiceConfig cfg;
  cfg.cache_capacity = 3;
  Service service(cfg);
  constexpr int kClients = 8;
  constexpr int kDistinct = 9;  // 3x the capacity
  const std::vector<std::string> mix = request_mix(kDistinct, 360);
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = static_cast<std::size_t>(c); i < mix.size();
           i += kClients) {
        const int n = 2 + (static_cast<int>(i) % kDistinct);
        const Json j = parse_json(service.handle_line(mix[i]));
        if (!j.find("ok")->as_bool()) {
          bad.fetch_add(1);
          continue;
        }
        const auto& outputs = j.find("result")->find("outputs")->items();
        if (static_cast<int>(outputs.size()) != n) {
          bad.fetch_add(1);
          continue;
        }
        // Path on n nodes: ends have degree 1 (odd), middles 2 (even).
        for (int v = 0; v < n; ++v) {
          const long long expected = (v == 0 || v == n - 1) ? 1 : 0;
          if (outputs[static_cast<std::size_t>(v)].as_int() != expected) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(service.cache().stats().evictions, 0u)
      << "test meant to run under eviction pressure but none happened";
}

TEST(ServeParallel, ConcurrentSingleFlightOnOneService) {
  // All clients ask the same heavy-ish question at once: compute must
  // run once, everyone must get identical bytes.
  Service service;
  const std::string req =
      R"({"op": "classify", "problem": "degree-parity", "graph": )"
      R"({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}})";
  constexpr int kClients = 8;
  std::vector<std::string> replies(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(
        [&, c] { replies[static_cast<std::size_t>(c)] = service.handle_line(req); });
  }
  for (auto& t : threads) t.join();
  for (int c = 1; c < kClients; ++c) {
    EXPECT_EQ(replies[static_cast<std::size_t>(c)], replies[0]);
  }
  const MemoCache::Stats st = service.cache().stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, static_cast<std::uint64_t>(kClients - 1));
}

// --- Drain ------------------------------------------------------------------

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string read_line(int fd) {
  std::string line;
  char c;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return line;
    line += c;
  }
  return line;  // connection closed
}

TEST(ServeParallel, DrainAnswersInFlightRequests) {
  ServerConfig cfg;
  cfg.port = 0;
  Server server(cfg);
  server.start();

  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const std::string req =
      R"({"op": "run", "id": 99, "machine": "odd-odd", "graph": )"
      R"({"n": 3, "edges": [[0, 1], [1, 2]]}})"
      "\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  // Give the bytes time to land in the server's buffer, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.request_stop();
  // The in-flight request must still be answered through the drain.
  const std::string reply = read_line(fd);
  ::close(fd);
  ASSERT_FALSE(reply.empty()) << "drain dropped an in-flight request";
  const Json j = parse_json(reply);
  EXPECT_TRUE(j.find("ok")->as_bool());
  EXPECT_EQ(j.find("id")->as_int(), 99);
  server.wait();  // must terminate (test TIMEOUT guards the hang case)
}

TEST(ServeParallel, DrainStopsAcceptingNewConnections) {
  ServerConfig cfg;
  cfg.port = 0;
  Server server(cfg);
  server.start();
  server.request_stop();
  server.wait();
  // After the drain completes, connects must fail (listener closed).
  const int fd = connect_loopback(server.port());
  if (fd >= 0) {
    // A connect may land in the kernel backlog raceily; a read then
    // sees immediate EOF rather than service.
    const std::string reply = read_line(fd);
    EXPECT_TRUE(reply.empty());
    ::close(fd);
  }
}

// The name predates permits, when --threads > 1 meant a pool; it is kept
// so the test id stays stable.
TEST(ServeParallel, PooledServerAnswersManyConnections) {
  ServerConfig cfg;
  cfg.port = 0;
  cfg.service.threads = 4;
  Server server(cfg);
  server.start();
  constexpr int kClients = 8;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      const int fd = connect_loopback(server.port());
      if (fd < 0) {
        bad.fetch_add(1);
        return;
      }
      for (int i = 0; i < 10; ++i) {
        const std::string req =
            R"({"op": "canon", "kind": "graph", "graph": )"
            R"({"n": 3, "edges": [[0, 1], [1, 2]]}})"
            "\n";
        if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
            static_cast<ssize_t>(req.size())) {
          bad.fetch_add(1);
          break;
        }
        const std::string reply = read_line(fd);
        const Json j = parse_json(reply);
        if (j.find("ok") == nullptr || !j.find("ok")->as_bool()) {
          bad.fetch_add(1);
        }
      }
      ::close(fd);
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);
  server.request_stop();
  server.wait();
}

// --- Hostile clients --------------------------------------------------------

bool send_line(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  return ::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL) ==
         static_cast<ssize_t>(framed.size());
}

/// The error code of a reply line, "" for a success or a non-reply.
std::string error_code(const std::string& reply) {
  if (reply.empty()) return "";
  const Json j = parse_json(reply);
  const Json* error = j.find("error");
  return error == nullptr ? "" : error->find("code")->as_string();
}

bool answers_stats(int fd) {
  if (!send_line(fd, R"({"op": "stats"})")) return false;
  const std::string reply = read_line(fd);
  return !reply.empty() && parse_json(reply).find("ok")->as_bool();
}

TEST(ServeParallel, DeepFormulaLineGetsBadFormulaAndTheConnectionLives) {
  ServerConfig cfg;
  Server server(cfg);
  server.start();
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  // 200,000 negations: a 200 KB line, far inside the 1 MiB line bound,
  // that overflowed the parser's stack and killed the daemon.
  ASSERT_TRUE(send_line(
      fd, R"({"op": "modelcheck", "formula": ")" + std::string(200000, '~') +
              R"(T", "model": {"graph": {"n": 2, "edges": [[0, 1]]}, )"
              R"("variant": "--"}})"));
  EXPECT_EQ(error_code(read_line(fd)), "bad_formula");
  EXPECT_TRUE(answers_stats(fd));
  ::close(fd);
  server.request_stop();
  server.wait();
}

/// VmSize of this process in KiB, 0 if unreadable.
long vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string field;
  long kib = 0;
  while (status >> field) {
    if (field == "VmSize:") {
      status >> kib;
      break;
    }
  }
  return kib;
}

// Each exited connection thread used to stay unjoined until shutdown,
// holding its stack mapping: ~8 MiB of address space per connection.
TEST(ServeParallel, SequentialConnectionsKeepAddressSpaceFlat) {
  ServerConfig cfg;
  Server server(cfg);
  server.start();
  auto connections = [&](int count) {
    for (int i = 0; i < count; ++i) {
      const int fd = connect_loopback(server.port());
      ASSERT_GE(fd, 0);
      EXPECT_TRUE(answers_stats(fd));
      ::close(fd);
    }
  };
  // Warm-up. A connection thread that starts before the previous one has
  // exited maps one more malloc arena and stack, so a few connections
  // held open at once make those first; the measured run then reuses them.
  {
    std::vector<int> held;
    for (int i = 0; i < 4; ++i) {
      held.push_back(connect_loopback(server.port()));
      ASSERT_GE(held.back(), 0);
      EXPECT_TRUE(answers_stats(held.back()));
    }
    for (const int fd : held) ::close(fd);
  }
  connections(300);  // allocator arenas and stack caches settle
  const long before = vm_size_kib();
  connections(300);
  const long after = vm_size_kib();
  ASSERT_GT(before, 0) << "no VmSize in /proc/self/status";
  EXPECT_LT(after - before, 64 * 1024)
      << "VmSize grew from " << before << " to " << after
      << " KiB over 300 sequential connections";
  server.request_stop();
  server.wait();
}

TEST(ServeParallel, ConnectionPastTheCapGetsBusy) {
  ServerConfig cfg;
  Server server(cfg);
  server.start();
  std::vector<int> held;
  for (int i = 0; i < Server::kMaxConnections; ++i) {
    const int fd = connect_loopback(server.port());
    ASSERT_GE(fd, 0);
    held.push_back(fd);
  }
  // Connections are accepted in arrival order, so all of `held` are
  // live by the time the server reaches this one.
  const int extra = connect_loopback(server.port());
  ASSERT_GE(extra, 0);
  // A missing reply then fails the test instead of hanging it.
  const timeval patience{10, 0};
  ::setsockopt(extra, SOL_SOCKET, SO_RCVTIMEO, &patience, sizeof(patience));
  const std::string reply = read_line(extra);
  EXPECT_EQ(error_code(reply), "busy") << reply;
  EXPECT_TRUE(parse_json(reply).find("op")->is_null());
  char byte = 0;
  EXPECT_EQ(::recv(extra, &byte, 1, 0), 0) << "busy connection left open";
  ::close(extra);
  EXPECT_TRUE(answers_stats(held.front()));
  for (const int fd : held) ::close(fd);
  // Finished threads are joined when the next connection arrives; one
  // arriving before the closed connections' threads exit still sees
  // `busy`, so retry for a while, one connection at a time.
  bool served = false;
  for (int attempt = 0; attempt < 200 && !served; ++attempt) {
    const int fd = connect_loopback(server.port());
    ASSERT_GE(fd, 0);
    served = answers_stats(fd);
    ::close(fd);
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(served) << "no connection served after the others closed";
  server.request_stop();
  server.wait();
}

}  // namespace
}  // namespace wm::serve
