// The `serve` workload: a live wm_serve daemon on loopback TCP, driven
// closed-loop by `threads` connections from this process, each sending
// its next request only after the previous reply line has arrived.
//
// The mix is synthesised from the seed: no recorded access log of
// wm_serve exists to derive it from. Each proportion is chosen, not
// measured, for the reason given:
//  - endpoints run : modelcheck : canon : classify = 8 : 4 : 4 : 2, the
//    split of bench/bench_serve.cpp's 18 distinct requests, the only
//    request mix the repository already has;
//  - cold : verbatim repeat : relabelling = 1 : 1 : 1. The three kinds
//    exercise different paths (compute on a miss, the cache on a repeat,
//    the canonical certificate and transport on a relabelling) and no
//    data favours one of them;
//  - a relabelling permutes the vertices of an earlier modelcheck or
//    canon request, the two endpoints whose payload can state a
//    permutation (run and classify name a numbering rule, which a vertex
//    permutation does not carry over). A relabelled modelcheck is a hit
//    through the model's certificate, answered through its labelling; a
//    relabelled canon is a miss (canon keys on the input itself) whose
//    hash must equal the original's;
//  - graphs are random connected graphs on 5-8 nodes with Delta <= 3,
//    the bounded-degree instances the paper's classes are about, large
//    enough that cold requests seldom collide by isomorphism.
// One round is kRoundRequests requests; repeats and relabellings refer
// to cold requests of earlier rounds.
//
// The client threads and the daemon share one CPU. On a virtual machine
// a request that wakes a thread on another, idle vCPU waits for the host
// to schedule that vCPU: with clients and daemon on separate CPUs that
// wait moved the round time of the same code up to 2.6x between runs,
// on one CPU by under 10%. So serve measures the serving stack's own
// cost (sockets, JSON, dispatch, cache, compute, context switches), not
// the host's vCPU wake-up latency, and its two connections interleave
// rather than run in parallel.
//
// Checks: every reply is ok; a repeat is byte-identical to its first
// reply; relabellings and a seeded sample of cold requests equal direct
// library calls. Traced runs replay the traced rounds' requests through
// an in-process Service (split by cache outcome) and time the library
// calls behind each endpoint on the same payloads.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "algorithms/machines.hpp"
#include "core/solvability.hpp"
#include "graph/canonical.hpp"
#include "graph/generators.hpp"
#include "logic/kripke.hpp"
#include "logic/model_checker.hpp"
#include "logic/parser.hpp"
#include "problems/catalogue.hpp"
#include "runtime/engine.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace perfbench {

namespace {

using namespace wm;

constexpr int kRoundRequests = 128;
constexpr int kHistory = 256;       // repeats refer to the last kHistory colds
constexpr int kTimeoutMs = 10000;   // a reply later than this is a failure
constexpr int kCheckOneIn = 4;      // cold requests checked against the library

enum class Op { kRun, kModelcheck, kCanon, kClassify };
enum class Kind { kCold, kRepeat, kRelabel };

constexpr const char* kMachines[] = {"odd-odd", "degree-parity",
                                     "isolated-detector", "port-one-parity"};
constexpr const char* kProblems[] = {"degree-parity", "isolated-node-detection",
                                     "odd-odd-neighbours"};
constexpr const char* kFormulas[] = {"<*,*> q2", "[*,*] (q1 | q2)",
                                     "<*,*> <*,*> q3", "~q1 & <*,*> q1",
                                     "<*,*> >= 2 q2"};

std::shared_ptr<const StateMachine> machine_named(const std::string& name) {
  if (name == "odd-odd") return odd_odd_machine();
  if (name == "degree-parity") return degree_parity_machine();
  if (name == "isolated-detector") return isolated_detector_machine();
  return port_one_parity_machine();
}

ProblemPtr problem_named(const std::string& name) {
  if (name == "degree-parity") return degree_parity_problem();
  if (name == "isolated-node-detection") return isolated_node_problem();
  return odd_odd_problem();
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// One request of the mix, with what a direct library call needs.
struct Req {
  std::string line;
  Op op = Op::kRun;
  Kind kind = Kind::kCold;
  std::string expect;      // a repeat's reply must equal this byte for byte
  std::string origin;      // a relabelling's original reply
  bool check = false;      // compare the reply with a direct library call
  Graph graph{0};
  std::optional<PortNumbering> numbering;  // run, classify
  std::uint64_t seed = 0;                  // random numbering; 0 = identity
  std::string name;                        // machine, problem or formula
  KripkeModel model;                       // modelcheck
};

std::string graph_json(const Graph& g, std::vector<Edge> edges) {
  std::string s = "{\"n\": " + std::to_string(g.num_nodes()) + ", \"edges\": [";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i > 0) s += ", ";
    s += "[" + std::to_string(edges[i].u) + ", " +
         std::to_string(edges[i].v) + "]";
  }
  return s + "]}";
}

std::string model_json(const KripkeModel& k) {
  std::string s = "{\"states\": " + std::to_string(k.num_states()) +
                  ", \"props\": " + std::to_string(k.num_props()) +
                  ", \"edges\": [";
  bool first = true;
  for (const Modality& a : k.modalities()) {
    for (int v = 0; v < k.num_states(); ++v) {
      for (const int w : k.successors(a, v)) {
        if (!first) s += ", ";
        first = false;
        s += "[" + std::to_string(a.in) + ", " + std::to_string(a.out) + ", " +
             std::to_string(v) + ", " + std::to_string(w) + "]";
      }
    }
  }
  s += "], \"valuation\": [";
  first = true;
  for (int q = 1; q <= k.num_props(); ++q) {
    for (int v = 0; v < k.num_states(); ++v) {
      if (!k.prop_holds(q, v)) continue;
      if (!first) s += ", ";
      first = false;
      s += "[" + std::to_string(q) + ", " + std::to_string(v) + "]";
    }
  }
  return s + "]}";
}

KripkeModel permute_model(const KripkeModel& k, const std::vector<int>& perm) {
  KripkeModel out(k.num_states(), k.num_props());
  for (const Modality& a : k.modalities()) {
    for (int v = 0; v < k.num_states(); ++v) {
      for (const int w : k.successors(a, v)) {
        out.add_edge(a, perm[static_cast<std::size_t>(v)],
                     perm[static_cast<std::size_t>(w)]);
      }
    }
  }
  for (int q = 1; q <= k.num_props(); ++q) {
    for (int v = 0; v < k.num_states(); ++v) {
      if (k.prop_holds(q, v)) out.set_prop(q, perm[static_cast<std::size_t>(v)]);
    }
  }
  return out;
}

Graph permute_graph(const Graph& g, const std::vector<int>& perm) {
  std::vector<Edge> edges;
  for (const Edge& e : g.edges()) {
    const int u = perm[static_cast<std::size_t>(e.u)];
    const int v = perm[static_cast<std::size_t>(e.v)];
    edges.push_back({std::min(u, v), std::max(u, v)});
  }
  return Graph::from_edges(g.num_nodes(), edges);
}

/// The seeded request stream. Keeps the last kHistory cold requests,
/// with their replies, for repeats to refer to, and the last kHistory
/// cold modelcheck and canon requests for relabellings.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) : rng_(seed) {
    for (const char* f : kFormulas) formulas_.push_back(parse_formula(f).to_string());
  }

  /// The next round's requests: cold, repeat and relabelling a third
  /// each (all cold until there is a history to draw on).
  std::vector<Req> next_round() {
    std::vector<Req> round;
    for (int i = 0; i < kRoundRequests; ++i) {
      const std::uint64_t roll = rng_.below(3);
      if (roll == 1 && !history_.empty()) {
        round.push_back(repeat(pick(history_)));
      } else if (roll == 2 && !permutable_.empty()) {
        round.push_back(relabel(pick(permutable_)));
      } else {
        round.push_back(cold());
      }
    }
    return round;
  }

  /// Files a round's cold requests and their replies into the history.
  void remember(const std::vector<Req>& round,
                const std::vector<std::string>& replies) {
    for (std::size_t i = 0; i < round.size(); ++i) {
      if (round[i].kind != Kind::kCold) continue;
      file(history_, round[i], replies[i]);
      if (round[i].op == Op::kModelcheck || round[i].op == Op::kCanon) {
        file(permutable_, round[i], replies[i]);
      }
    }
  }

 private:
  static void file(std::deque<Req>& into, const Req& r,
                   const std::string& reply) {
    into.push_back(r);
    into.back().expect = reply;
    if (into.size() > kHistory) into.pop_front();
  }

  const Req& pick(const std::deque<Req>& from) {
    return from[rng_.below(from.size())];
  }

  Req repeat(const Req& origin) {
    Req r = origin;
    r.kind = Kind::kRepeat;
    r.check = false;
    return r;
  }

  /// A vertex permutation of a modelcheck or canon request.
  Req relabel(const Req& origin) {
    Req r = origin;
    r.kind = Kind::kRelabel;
    r.check = true;
    r.origin = origin.expect;
    r.expect.clear();
    const int n = r.graph.num_nodes();
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
    rng_.shuffle(perm);
    if (r.op == Op::kModelcheck) {
      r.model = permute_model(r.model, perm);
    } else {
      r.graph = permute_graph(r.graph, perm);
    }
    r.line = render(r);
    return r;
  }

  Req cold() {
    Req r;
    r.check = rng_.below(kCheckOneIn) == 0;
    const int n = static_cast<int>(rng_.range(5, 9));
    r.graph = random_connected_graph(n, 3, static_cast<int>(rng_.range(0, 2)),
                                     rng_);
    const std::uint64_t pick_op = rng_.below(18);  // bench_serve's 8:4:4:2
    r.op = pick_op < 8    ? Op::kRun
           : pick_op < 12 ? Op::kModelcheck
           : pick_op < 16 ? Op::kCanon
                          : Op::kClassify;
    r.seed = rng_.chance(1, 2) ? 1 + rng_.below(1u << 30) : 0;
    if (r.seed == 0) {
      r.numbering = PortNumbering::identity(r.graph);
    } else {
      Rng nr(r.seed);
      r.numbering = PortNumbering::random(r.graph, nr);
    }
    if (r.op == Op::kRun) {
      r.name = kMachines[rng_.below(std::size(kMachines))];
    } else if (r.op == Op::kClassify) {
      r.name = kProblems[rng_.below(std::size(kProblems))];
    } else if (r.op == Op::kModelcheck) {
      r.name = formulas_[rng_.below(formulas_.size())];
      r.model = kripke_from_graph(*r.numbering, Variant::MinusMinus, 3);
    }
    r.line = render(r);
    return r;
  }

  static std::string render(const Req& r) {
    const std::vector<Edge> edges = r.graph.edges();
    const std::string numbering =
        r.seed == 0 ? ", \"numbering\": \"identity\""
                    : ", \"numbering\": \"random\", \"seed\": " +
                          std::to_string(r.seed);
    switch (r.op) {
      case Op::kRun:
        return "{\"op\": \"run\", \"machine\": \"" + r.name +
               "\", \"graph\": " + graph_json(r.graph, edges) + numbering + "}";
      case Op::kClassify:
        return "{\"op\": \"classify\", \"problem\": \"" + r.name +
               "\", \"graph\": " + graph_json(r.graph, edges) + numbering + "}";
      case Op::kModelcheck:
        return "{\"op\": \"modelcheck\", \"formula\": \"" + r.name +
               "\", \"model\": " + model_json(r.model) + "}";
      case Op::kCanon:
        return "{\"op\": \"canon\", \"kind\": \"graph\", \"graph\": " +
               graph_json(r.graph, edges) + "}";
    }
    return {};
  }

  Rng rng_;
  std::vector<std::string> formulas_;
  std::deque<Req> history_;
  std::deque<Req> permutable_;
};

/// Moves this thread, and so the client threads and the daemon it
/// starts later, onto the last CPU it may run on. Returns that CPU, or
/// -1 if the affinity calls fail (then nothing is pinned).
int pin_to_one_cpu() {
  cpu_set_t all;
  CPU_ZERO(&all);
  if (::sched_getaffinity(0, sizeof(all), &all) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) cpu = c;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return ::sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

/// The daemon process: spawned with an ephemeral port, SIGTERM-drained
/// and reaped (its rusage gives the peak RSS) by stop() or the destructor.
class Daemon {
 public:
  Daemon(const std::string& bin, int threads) {
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
    posix_spawn_file_actions_addclose(&fa, out[0]);
    const std::string t = std::to_string(threads);
    const char* argv[] = {bin.c_str(), "--port", "0", "--print-port",
                          "--threads", t.c_str(), nullptr};
    const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr,
                               const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(out[1]);
    out_fd_ = out[0];
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot spawn " + bin);
    }
    try {
      read_port();
    } catch (...) {
      kill_and_reap();
      throw;
    }
  }
  ~Daemon() { kill_and_reap(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }

  /// SIGTERM drain; returns true on a clean exit. Sets peak_rss_mb.
  bool stop(double& peak_rss_mb) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    rusage ru{};
    const pid_t r = ::wait4(pid_, &status, 0, &ru);
    pid_ = -1;
    peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return r > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  /// Reads the "port <P>" line --print-port writes.
  void read_port() {
    std::string line;
    char c = 0;
    pollfd pfd{out_fd_, POLLIN, 0};
    while (line.find('\n') == std::string::npos) {
      if (::poll(&pfd, 1, kTimeoutMs) <= 0 || ::read(out_fd_, &c, 1) != 1) {
        throw std::runtime_error("wm_serve did not report its port");
      }
      line += c;
    }
    if (std::sscanf(line.c_str(), "port %d", &port_) != 1) {
      throw std::runtime_error("unexpected wm_serve output: " + line);
    }
  }

  void kill_and_reap() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

/// One client connection: a request line out, a reply line back.
class Conn {
 public:
  explicit Conn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{kTimeoutMs / 1000, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// False on a refused connection, a transport error or a timeout.
  bool request(const std::string& line, std::string& reply) {
    if (fd_ < 0) return false;
    const std::string out = line + "\n";
    std::size_t sent = 0;
    while (sent < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        reply = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

const std::string kProbe =
    "{\"op\": \"canon\", \"kind\": \"graph\", \"graph\": {\"n\": 1, "
    "\"edges\": []}}";

bool is_ok(const std::string& reply) {
  return reply.rfind("{\"ok\": true", 0) == 0;
}

std::vector<int> ints(const serve::Json* j) {
  std::vector<int> v;
  if (j == nullptr || !j->is_array()) return v;
  for (const serve::Json& x : j->items()) {
    v.push_back(x.is_int() ? static_cast<int>(x.as_int()) : -1);
  }
  return v;
}

/// The direct library answer to `r`, compared with its reply.
bool matches_library(const Req& r, const std::string& reply) {
  const serve::Json j = serve::parse_json(reply);
  const serve::Json* res = j.find("result");
  if (res == nullptr) return false;
  switch (r.op) {
    case Op::kRun: {
      const Scope s("runtime.execute");
      ExecutionOptions opts;
      opts.max_rounds = 1000;
      const ExecutionResult er = execute(*machine_named(r.name), *r.numbering, opts);
      return er.stopped && ints(res->find("outputs")) == er.outputs_as_ints();
    }
    case Op::kModelcheck: {
      const Scope s("logic.modelcheck");
      const Bitset bits = model_check_bits(r.model, parse_formula(r.name));
      std::vector<int> holds(static_cast<std::size_t>(r.model.num_states()));
      for (int v = 0; v < r.model.num_states(); ++v) {
        holds[static_cast<std::size_t>(v)] =
            bits.test(static_cast<std::size_t>(v)) ? 1 : 0;
      }
      return ints(res->find("holds")) == holds;
    }
    case Op::kCanon: {
      const Scope s("graph.canonical");
      const serve::Json* h = res->find("hash");
      if (h == nullptr || !h->is_string()) return false;
      if (!r.origin.empty()) {  // a relabelling keeps the original's hash
        const serve::Json o = serve::parse_json(r.origin);
        const serve::Json* ores = o.find("result");
        const serve::Json* oh = ores ? ores->find("hash") : nullptr;
        if (oh == nullptr || !oh->is_string() ||
            oh->as_string() != h->as_string()) {
          return false;
        }
      }
      return h->as_string() ==
             hash_hex(certificate_hash(canonical_certificate(r.graph)));
    }
    case Op::kClassify: {
      const Scope s("core.analyse");
      const ScopedInstance inst =
          instance_for(*problem_named(r.name), *r.numbering);
      const serve::Json* cls = res->find("classes");
      const std::vector<ProblemClass> classes = all_problem_classes();
      if (cls == nullptr || cls->items().size() != classes.size()) return false;
      for (std::size_t i = 0; i < classes.size(); ++i) {
        const std::optional<int> want =
            analyse_solvability({inst}, classes[i], r.graph.max_degree(), 8)
                .min_rounds;
        const serve::Json* got = cls->items()[i].find("min_rounds");
        if (got == nullptr) return false;
        const std::optional<int> have =
            got->is_int() ? std::optional<int>(static_cast<int>(got->as_int()))
                          : std::nullopt;
        if (have != want) return false;
      }
      return true;
    }
  }
  return false;
}

/// Times the canonical form each endpoint computes for its cache key.
void time_canonical_key(const Req& r) {
  const Scope s("graph.canonical");
  if (r.op == Op::kModelcheck) {
    canonical_form(r.model);
  } else if (r.op == Op::kCanon) {
    canonical_form(r.graph);
  } else {
    canonical_form(*r.numbering);
  }
}

/// Cache hits and misses the daemon has served so far.
std::pair<double, double> daemon_cache(Conn& conn) {
  std::string reply;
  if (!conn.request("{\"op\": \"stats\"}", reply)) return {0, 0};
  const serve::Json j = serve::parse_json(reply);
  const serve::Json* result = j.find("result");
  const serve::Json* cache = result ? result->find("cache") : nullptr;
  const serve::Json* hits = cache ? cache->find("hits") : nullptr;
  const serve::Json* misses = cache ? cache->find("misses") : nullptr;
  if (!hits || !misses || !hits->is_int() || !misses->is_int()) return {0, 0};
  return {static_cast<double>(hits->as_int()),
          static_cast<double>(misses->as_int())};
}

}  // namespace

int run_serve(const Args& args, Raw& raw) {
  raw.op_name = "request";
  if (args.serve_bin.empty()) throw std::runtime_error("--serve-bin missing");
  const int cpu = pin_to_one_cpu();
  raw.notes.push_back(cpu >= 0 ? "clients and daemon on CPU " +
                                     std::to_string(cpu)
                               : std::string("clients and daemon unpinned "
                                             "(affinity calls failed)"));
  // Set-up: daemon spawn until its first ok reply. Samples use a
  // throwaway daemon beside the measured one.
  auto start = [&](std::unique_ptr<Daemon>& d) {
    const Clock::time_point t0 = Clock::now();
    d = std::make_unique<Daemon>(args.serve_bin, args.threads);
    Conn probe(d->port());
    std::string reply;
    if (!probe.request(kProbe, reply) || !is_ok(reply)) {
      throw std::runtime_error("wm_serve did not answer its first request");
    }
    return seconds_since(t0);
  };
  auto setup = [&] {
    std::unique_ptr<Daemon> spare;
    const double s = start(spare);
    double ignored = 0;
    spare->stop(ignored);
    return s;
  };
  std::unique_ptr<Daemon> daemon;
  start(daemon);

  Mix mix(args.seed);
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < args.threads; ++c) {
    conns.push_back(std::make_unique<Conn>(daemon->port()));
  }
  std::vector<Req> reqs;
  std::vector<std::string> replies(kRoundRequests);
  std::deque<std::string> recent;  // request lines, to warm the replay
  long long rid_base = 0;          // request id of the round's first request
  std::uint64_t repeats = 0, repeat_bad = 0, direct = 0, direct_bad = 0;
  std::uint64_t relabelled[2] = {0, 0};  // modelcheck, canon

  auto round = [&](bool record, std::uint64_t parent) {
    reqs = mix.next_round();
    rid_base = static_cast<long long>(raw.attempted);
    std::vector<double> latency(kRoundRequests, -1);
    std::vector<std::thread> clients;
    for (int c = 0; c < args.threads; ++c) {
      clients.emplace_back([&, c] {
        for (int i = c; i < kRoundRequests; i += args.threads) {
          const std::size_t k = static_cast<std::size_t>(i);
          const Scope s("serve.request", rid_base + i, parent);
          const Clock::time_point t0 = Clock::now();
          replies[k].clear();
          if (conns[static_cast<std::size_t>(c)]->request(reqs[k].line,
                                                          replies[k])) {
            latency[k] = 1000.0 * seconds_since(t0);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (int i = 0; i < kRoundRequests; ++i) {
      const std::size_t k = static_cast<std::size_t>(i);
      ++raw.attempted;
      if (latency[k] < 0 || !is_ok(replies[k])) {
        ++raw.failed;
        if (record) ++raw.failed_ops;
      } else if (record) {
        raw.op_ms.push_back(latency[k]);
        ++raw.ops;
      }
    }
  };

  // The replay Service of traced runs, warmed on the requests before the
  // first traced round so its cache outcomes follow the daemon's.
  std::unique_ptr<serve::Service> service;
  auto settle = [&](bool traced) {
    if (traced && !service) {
      Tracer::instance().enable(false);
      service = std::make_unique<serve::Service>();
      for (const std::string& line : recent) service->handle_line(line);
      Tracer::instance().enable(true);
    }
    if (traced) {
      const double forms = counter_value("canonical.forms");
      const Scope root("serve.replay");
      for (std::size_t k = 0; k < reqs.size(); ++k) {
        const std::uint64_t hits = service->cache().stats().hits;
        const double start = Tracer::instance().now_us();
        service->handle_line(reqs[k].line);
        Span s;
        s.end_us = Tracer::instance().now_us();
        s.start_us = start;
        s.id = Tracer::instance().next_id();
        s.parent = root.id();
        s.name = service->cache().stats().hits > hits ? "serve.handle_hit"
                                                      : "serve.handle_miss";
        s.rid = rid_base + static_cast<long long>(k);
        Tracer::instance().record(std::move(s));
      }
      raw.counts["graph.canonical_forms"] +=
          counter_value("canonical.forms") - forms;
    }
    const Scope root("serve.library");
    for (std::size_t k = 0; k < reqs.size(); ++k) {
      const Req& r = reqs[k];
      if (!is_ok(replies[k])) continue;  // already counted as failed
      if (traced) time_canonical_key(r);
      bool good = true;
      if (r.kind == Kind::kRepeat) {
        ++repeats;
        good = replies[k] == r.expect;
        if (!good) ++repeat_bad;
      } else if (r.check || traced) {
        if (r.kind == Kind::kRelabel) ++relabelled[r.op == Op::kCanon];
        ++direct;
        good = matches_library(r, replies[k]);
        if (!good) ++direct_bad;
      }
      if (!good) ++raw.wrong;
    }
    mix.remember(reqs, replies);
    for (const Req& r : reqs) {
      recent.push_back(r.line);
      if (recent.size() > 4 * kHistory) recent.pop_front();
    }
  };

  auto stats = std::make_unique<Conn>(daemon->port());
  const std::pair<double, double> cache0 = daemon_cache(*stats);
  measure(args, raw, "serve.round", setup, round, settle);
  Tracer::instance().enable(false);
  const std::pair<double, double> cache1 = daemon_cache(*stats);
  conns.clear();
  stats.reset();
  const bool drained = daemon->stop(raw.peak_rss_mb);
  raw.check("SIGTERM drain", drained,
            drained ? "daemon exited 0" : "daemon exit status not 0");
  raw.check("verbatim repeats byte-identical", repeat_bad == 0,
            std::to_string(repeats - repeat_bad) + "/" +
                std::to_string(repeats));
  raw.check("relabellings and sampled colds equal library calls",
            direct_bad == 0,
            std::to_string(direct - direct_bad) + "/" + std::to_string(direct) +
                ", of them " + std::to_string(relabelled[0]) +
                " relabelled modelcheck (same certificate key) + " +
                std::to_string(relabelled[1]) +
                " relabelled canon (misses, hash kept)");
  raw.check("every reply ok", raw.failed == 0,
            std::to_string(raw.attempted - raw.failed) + "/" +
                std::to_string(raw.attempted));
  if (!args.trace) return 0;

  const double hits = cache1.first - cache0.first;
  const double misses = cache1.second - cache0.second;
  raw.counts["serve.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  raw.notes.push_back(
      "serve.hit_ratio base: " + std::to_string(static_cast<long long>(hits)) +
      " hits + " + std::to_string(static_cast<long long>(misses)) +
      " misses, daemon-side, all rounds");
  const double rounds = static_cast<double>(raw.traced_round_s.size());
  raw.counts["graph.canonical_forms"] /= rounds;
  raw.divisors["serve.replay"] = rounds;
  raw.divisors["serve.library"] = rounds;
  return 0;
}

}  // namespace perfbench
