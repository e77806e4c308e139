// The wm_serve request protocol: newline-delimited JSON, one object per
// line each way.
//
// Request envelope (any endpoint):
//
//   {"op": "<endpoint>", "id": <int|string, optional, echoed>,
//    "timeout_ms": <int, optional>, ...endpoint fields...}
//
// Reply envelope, exactly one line, fields always in this order:
//
//   {"ok": true[, "id": ...], "op": "<endpoint>", "result": {...}}
//   {"ok": false[, "id": ...], "op": <endpoint|null>,
//    "error": {"code": "<code>", "message": "..."}}
//
// Error codes: parse_error, oversized, bad_request, unknown_op,
// unknown_problem, unknown_machine, bad_formula, unsupported, deadline,
// internal, busy. Malformed input of any shape gets a structured error
// reply, never a crash or a dropped connection. The transport closes a
// connection only when a line exceeds the size bound with no newline in
// sight (there is no way to resynchronise a stream without line
// boundaries), and it answers a connection past its cap with one `busy`
// line before closing it (serve/server.hpp).
//
// Endpoints (field details in README.md "Serving"):
//
//   classify    problem name + graph + port numbering -> per-class
//               solvability vector (min_rounds across SB..VVc)
//   modelcheck  formula + Kripke model (explicit or K_{a,b}(G,p)) ->
//               denotation bits per state
//   run         machine name + graph + port numbering -> outputs,
//               rounds, message stats
//   canon       graph / pn / kripke -> canonical certificate hash +
//               canonical labelling
//   stats       -> counters + latency histograms + cache stats + a
//               rolling window section + run manifest
//   metrics     -> Prometheus text exposition 0.0.4 as result.text
//               (serve/metrics.hpp lists the families)
//
// Observability: handle_line assigns every request a monotonically
// increasing request id and binds it to the handling thread
// (obs::RequestIdScope), so engine trace spans carry it; when WM_LOG is
// armed, one structured access-log line per request records endpoint,
// cache-key digest, cache hit/miss, deadline state, status and duration,
// plus a "slow_request" warning above WM_SLOW_MS.
//
// Results are answered through the canonical-certificate memo-cache;
// DESIGN.md "Serving and the memo-cache" gives the soundness argument
// for sharing blobs across clients (results are stored in canonical
// coordinates and transported back through each querying structure's
// own canonical labelling).
#pragma once

#include <string>
#include <string_view>
#include <variant>

#include "logic/formula.hpp"
#include "logic/kripke.hpp"
#include "port/port_numbering.hpp"
#include "serve/memo_cache.hpp"

namespace wm::serve {

// --- Typed requests (the wire layer parses into these) ----------------------

struct ClassifyRequest {
  std::string problem;      // catalogue name, e.g. "odd-odd-neighbours"
  PortNumbering numbering;  // carries its graph
  int max_rounds = 8;       // per-class refinement cap (1..64)
};

struct ModelcheckRequest {
  Formula formula;
  KripkeModel model;
};

struct RunRequest {
  std::string machine;  // algorithm-catalogue name, e.g. "odd-odd"
  PortNumbering numbering;
  int max_rounds = 1000;
};

struct CanonRequest {
  std::string kind;  // "graph" | "pn" | "kripke"
  // Exactly one of these is meaningful, per `kind`.
  Graph graph;
  PortNumbering numbering;
  KripkeModel kripke;
  /// Deterministic normalised encoding of the input — the cache key
  /// material (computing the certificate IS this endpoint's work, so
  /// its cache is exact-repeat rather than isomorphism-closed).
  std::string input_encoding;
};

struct StatsRequest {};

struct MetricsRequest {};

struct Request {
  std::string op;
  /// The "id" field re-serialised for echoing ("" = absent).
  std::string id_echo;
  int timeout_ms = 0;  // 0 = no deadline
  std::variant<std::monostate, ClassifyRequest, ModelcheckRequest, RunRequest,
               CanonRequest, StatsRequest, MetricsRequest>
      payload;
};

// --- The service ------------------------------------------------------------

struct ServiceConfig {
  /// Memo-cache bound on live entries.
  std::size_t cache_capacity = 4096;
  /// Hard bound on one request line (bytes, newline excluded).
  std::size_t max_request_bytes = 1 << 20;
  /// Applied when a request carries no timeout_ms of its own; 0 = none.
  int default_timeout_ms = 0;
  /// Requests a Server runs at once (its permits; the default runs one
  /// at a time). Also reported by the stats endpoint's manifest.
  int threads = 1;
  /// Lookback of the stats "window" section and the wm_window_* metric
  /// families (actual span depends on available window captures).
  double window_secs = 60.0;
};

/// One error reply line (newline excluded) in the envelope above. An
/// empty `op` renders as null; an empty `id_echo` omits the id.
std::string error_reply(const std::string& op, const std::string& id_echo,
                        const std::string& code, const std::string& message);

/// The transport-independent core of wm_serve: one request line in, one
/// reply line out (newline excluded both ways). Thread-safe — the
/// memo-cache synchronises internally and every library call underneath
/// is a pure observer, so connection threads may call handle_line
/// concurrently.
class Service {
 public:
  explicit Service(const ServiceConfig& cfg = {});

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Never throws in response to request content: malformed input of
  /// any kind becomes an {"ok": false, ...} reply.
  std::string handle_line(std::string_view line);

  MemoCache& cache() { return cache_; }
  const ServiceConfig& config() const { return cfg_; }

 private:
  ServiceConfig cfg_;
  MemoCache cache_;
};

}  // namespace wm::serve
