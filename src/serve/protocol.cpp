#include "serve/protocol.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <set>
#include <utility>

#include "algorithms/machines.hpp"
#include "core/classification.hpp"
#include "core/solvability.hpp"
#include "graph/canonical.hpp"
#include "logic/model_checker.hpp"
#include "logic/parser.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "obs/manifest.hpp"
#include "obs/window.hpp"
#include "problems/catalogue.hpp"
#include "runtime/engine.hpp"
#include "serve/json.hpp"
#include "serve/metrics.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace wm::serve {

namespace {

// Input bounds. The protocol exists to answer small-structure queries
// fast; anything past these limits deserves the batch binaries.
constexpr int kMaxNodes = 128;          // run / canon / derived Kripke
constexpr int kMaxClassifyNodes = 16;   // classify scans 2^n outputs
constexpr int kMaxStates = 2048;        // explicit Kripke models
constexpr int kMaxProps = 64;
constexpr int kMaxPort = 64;            // modality components
constexpr std::size_t kMaxEdges = 65536;
// Explicit Kripke models: states x distinct modalities. The canonical
// form keeps two rows per state for each distinct modality, so this
// bounds the memory a request can claim.
constexpr long long kMaxRelationRows = 1 << 18;
constexpr int kMaxTimeoutMs = 3600 * 1000;

/// Validation failure -> structured error reply. Not derived from
/// std::exception so the catch-all cannot shadow it by ordering.
struct RequestError {
  std::string code;
  std::string message;
};

/// Per-request facts the handlers report back for the access-log line:
/// cache outcome, cache-key digest, deadline state. Plain strings so the
/// whole struct is a no-op to fill when logging is disarmed.
struct RequestObs {
  const char* cache = "none";     // none | hit | miss
  std::string key;                // 16-hex digest of the cache key
  const char* deadline = "none";  // none | ok | expired
};

#if !defined(WM_OBS_DISABLED)
void bump_work(std::string_view name) {
  obs::registry().counter(name, obs::CounterKind::kWork).add(1);
}
void bump_info(std::string_view name) {
  obs::registry().counter(name, obs::CounterKind::kInfo).add(1);
}
#else
void bump_work(std::string_view) {}
void bump_info(std::string_view) {}
#endif

// --- Field access helpers ---------------------------------------------------

const Json& require_field(const Json& obj, std::string_view key) {
  const Json* f = obj.find(key);
  if (f == nullptr) {
    throw RequestError{"bad_request",
                       "missing field \"" + std::string(key) + "\""};
  }
  return *f;
}

std::string get_string(const Json& obj, std::string_view key) {
  const Json& f = require_field(obj, key);
  if (!f.is_string()) {
    throw RequestError{"bad_request",
                       "field \"" + std::string(key) + "\" must be a string"};
  }
  return f.as_string();
}

long long get_int(const Json& obj, std::string_view key, long long fallback,
                  long long lo, long long hi) {
  const Json* f = obj.find(key);
  if (f == nullptr) return fallback;
  if (!f->is_int()) {
    throw RequestError{"bad_request", "field \"" + std::string(key) +
                                          "\" must be an integer"};
  }
  const long long v = f->as_int();
  if (v < lo || v > hi) {
    throw RequestError{"bad_request",
                       "field \"" + std::string(key) + "\" out of range [" +
                           std::to_string(lo) + ", " + std::to_string(hi) +
                           "]"};
  }
  return v;
}

// --- Structure parsing ------------------------------------------------------

Graph parse_graph(const Json& obj, int max_nodes) {
  const Json& gj = require_field(obj, "graph");
  if (!gj.is_object()) {
    throw RequestError{"bad_request", "field \"graph\" must be an object"};
  }
  const int n =
      static_cast<int>(get_int(gj, "n", -1, 0, max_nodes));
  if (n < 0) throw RequestError{"bad_request", "missing field \"n\""};
  const Json& ej = require_field(gj, "edges");
  if (!ej.is_array() || ej.items().size() > kMaxEdges) {
    throw RequestError{"bad_request",
                       "field \"edges\" must be an array (bounded)"};
  }
  std::vector<Edge> edges;
  std::set<std::pair<int, int>> seen;
  for (const Json& e : ej.items()) {
    if (!e.is_array() || e.items().size() != 2 || !e.items()[0].is_int() ||
        !e.items()[1].is_int()) {
      throw RequestError{"bad_request", "each edge must be [u, v]"};
    }
    const long long u = e.items()[0].as_int();
    const long long v = e.items()[1].as_int();
    if (u < 0 || v < 0 || u >= n || v >= n || u == v) {
      throw RequestError{"bad_request", "edge endpoints must be distinct ids "
                                        "in [0, n)"};
    }
    const int ui = static_cast<int>(u), vi = static_cast<int>(v);
    const std::pair<int, int> key{std::min(ui, vi), std::max(ui, vi)};
    if (!seen.insert(key).second) {
      throw RequestError{"bad_request", "duplicate edge"};
    }
    edges.push_back({key.first, key.second});
  }
  return Graph::from_edges(n, edges);
}

PortNumbering parse_numbering(const Json& obj, const Graph& g) {
  const Json* f = obj.find("numbering");
  std::string mode = "identity";
  if (f != nullptr) {
    if (!f->is_string()) {
      throw RequestError{"bad_request",
                         "field \"numbering\" must be a string"};
    }
    mode = f->as_string();
  }
  const auto seed = static_cast<std::uint64_t>(
      get_int(obj, "seed", 1, 0, std::numeric_limits<long long>::max()));
  if (mode == "identity") return PortNumbering::identity(g);
  if (mode == "random") {
    Rng rng(seed);
    return PortNumbering::random(g, rng);
  }
  if (mode == "consistent") {
    Rng rng(seed);
    return PortNumbering::random_consistent(g, rng);
  }
  if (mode == "symmetric") {
    if (g.num_nodes() == 0 || !g.is_regular(g.max_degree())) {
      throw RequestError{"unsupported",
                         "symmetric numbering requires a regular graph"};
    }
    return PortNumbering::symmetric_regular(g);
  }
  throw RequestError{"bad_request", "unknown numbering \"" + mode +
                                        "\" (identity | random | consistent "
                                        "| symmetric)"};
}

KripkeModel parse_kripke(const Json& obj) {
  // Two spellings: an explicit model, or K_{a,b}(G, p) derived from a
  // graph + variant + numbering.
  const Json& mj = require_field(obj, "model");
  if (!mj.is_object()) {
    throw RequestError{"bad_request", "field \"model\" must be an object"};
  }
  if (mj.find("graph") != nullptr) {
    const Graph g = parse_graph(mj, kMaxNodes);
    const PortNumbering p = parse_numbering(mj, g);
    const std::string vs = get_string(mj, "variant");
    Variant variant;
    if (vs == "++") {
      variant = Variant::PlusPlus;
    } else if (vs == "-+") {
      variant = Variant::MinusPlus;
    } else if (vs == "+-") {
      variant = Variant::PlusMinus;
    } else if (vs == "--") {
      variant = Variant::MinusMinus;
    } else {
      throw RequestError{"bad_request",
                         "unknown variant \"" + vs + "\" (++ | -+ | +- | --)"};
    }
    const int delta = static_cast<int>(
        get_int(mj, "delta", -1, g.max_degree(), kMaxPort));
    return kripke_from_graph(p, variant, delta);
  }
  const int states = static_cast<int>(get_int(mj, "states", -1, 0, kMaxStates));
  if (states < 0) throw RequestError{"bad_request", "missing field \"states\""};
  const int props = static_cast<int>(get_int(mj, "props", 0, 0, kMaxProps));
  // Every edge is checked, and the model's size bounded, before any of
  // it is built: the canonical form keeps two rows per state for each
  // distinct modality.
  std::vector<KripkeEdge> edges;
  std::set<Modality> modalities;
  if (const Json* ej = mj.find("edges")) {
    if (!ej->is_array() || ej->items().size() > kMaxEdges) {
      throw RequestError{"bad_request",
                         "field \"edges\" must be an array (bounded)"};
    }
    edges.reserve(ej->items().size());
    for (const Json& e : ej->items()) {
      if (!e.is_array() || e.items().size() != 4 ||
          !std::all_of(e.items().begin(), e.items().end(),
                       [](const Json& x) { return x.is_int(); })) {
        throw RequestError{"bad_request",
                           "each Kripke edge must be [in, out, from, to]"};
      }
      const long long in = e.items()[0].as_int();
      const long long out = e.items()[1].as_int();
      const long long from = e.items()[2].as_int();
      const long long to = e.items()[3].as_int();
      if (in < 0 || in > kMaxPort || out < 0 || out > kMaxPort || from < 0 ||
          from >= states || to < 0 || to >= states) {
        throw RequestError{"bad_request", "Kripke edge out of range"};
      }
      edges.push_back({Modality{static_cast<int>(in), static_cast<int>(out)},
                       static_cast<int>(from), static_cast<int>(to)});
      modalities.insert(edges.back().alpha);
    }
  }
  if (states * static_cast<long long>(modalities.size()) > kMaxRelationRows) {
    throw RequestError{"bad_request",
                       "Kripke model too large: " + std::to_string(states) +
                           " states x " + std::to_string(modalities.size()) +
                           " modalities exceeds " +
                           std::to_string(kMaxRelationRows) +
                           " relation rows"};
  }
  KripkeModel k = KripkeModel::from_edges(states, props, edges);
  if (const Json* vj = mj.find("valuation")) {
    if (!vj->is_array()) {
      throw RequestError{"bad_request", "field \"valuation\" must be an array"};
    }
    for (const Json& e : vj->items()) {
      if (!e.is_array() || e.items().size() != 2 || !e.items()[0].is_int() ||
          !e.items()[1].is_int()) {
        throw RequestError{"bad_request",
                           "each valuation entry must be [q, state]"};
      }
      const long long q = e.items()[0].as_int();
      const long long state = e.items()[1].as_int();
      if (q < 1 || q > props || state < 0 || state >= states) {
        throw RequestError{"bad_request", "valuation entry out of range"};
      }
      k.set_prop(static_cast<int>(q), static_cast<int>(state));
    }
  }
  return k;
}

// --- Name catalogues --------------------------------------------------------

ProblemPtr problem_by_name(const std::string& name) {
  if (name == "leaf-in-star") return leaf_in_star_problem();
  if (name == "odd-odd-neighbours") return odd_odd_problem();
  if (name == "symmetry-break-in-G") return symmetry_break_problem();
  if (name == "maximal-independent-set") {
    return maximal_independent_set_problem();
  }
  if (name == "vertex-3-colouring") return three_colouring_problem();
  if (name == "eulerian-decision") return eulerian_decision_problem();
  if (name == "approx-vertex-cover") return approx_vertex_cover_problem();
  if (name == "isolated-node-detection") return isolated_node_problem();
  if (name == "degree-parity") return degree_parity_problem();
  throw RequestError{"unknown_problem", "unknown problem \"" + name + "\""};
}

std::shared_ptr<const StateMachine> machine_by_name(const std::string& name,
                                                    int delta) {
  if (name == "leaf-picker") return leaf_picker_machine();
  if (name == "odd-odd") return odd_odd_machine();
  if (name == "local-type-maximum") {
    return local_type_maximum_machine(std::max(1, delta));
  }
  if (name == "isolated-detector") return isolated_detector_machine();
  if (name == "degree-parity") return degree_parity_machine();
  if (name == "vertex-cover-packing") return vertex_cover_packing_machine();
  if (name == "vertex-cover-packing-vb") {
    return vertex_cover_packing_vb_machine();
  }
  if (name == "even-degree") return even_degree_machine();
  if (name == "port-one-parity") return port_one_parity_machine();
  throw RequestError{"unknown_machine", "unknown machine \"" + name + "\""};
}

// --- Reply serialisation ----------------------------------------------------
// Fixed field order, `", "` / `": "` separators (the obs/manifest.cpp
// style) — the golden tests pin replies byte-for-byte.

std::string ints_json(const std::vector<int>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(v[i]);
  }
  out += "]";
  return out;
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::string ok_reply(const std::string& op, const std::string& id_echo,
                     const std::string& result_body) {
  std::string out = "{\"ok\": true";
  if (!id_echo.empty()) {
    out += ", \"id\": ";
    out += id_echo;
  }
  out += ", \"op\": ";
  append_json_quoted(out, op);
  out += ", \"result\": ";
  out += result_body;
  out += "}";
  return out;
}

}  // namespace

std::string error_reply(const std::string& op, const std::string& id_echo,
                        const std::string& code, const std::string& message) {
  bump_info("serve.errors");
  std::string out = "{\"ok\": false";
  if (!id_echo.empty()) {
    out += ", \"id\": ";
    out += id_echo;
  }
  out += ", \"op\": ";
  if (op.empty()) {
    out += "null";
  } else {
    append_json_quoted(out, op);
  }
  out += ", \"error\": {\"code\": ";
  append_json_quoted(out, code);
  out += ", \"message\": ";
  append_json_quoted(out, message);
  out += "}}";
  return out;
}

namespace {

// --- Request parsing --------------------------------------------------------

void parse_envelope(const Json& j, Request& req, const ServiceConfig& cfg) {
  if (!j.is_object()) {
    throw RequestError{"bad_request", "request must be a JSON object"};
  }
  if (const Json* id = j.find("id")) {
    if (id->is_int()) {
      req.id_echo = std::to_string(id->as_int());
    } else if (id->is_string()) {
      req.id_echo = json_quoted(id->as_string());
    } else {
      throw RequestError{"bad_request",
                         "field \"id\" must be an integer or string"};
    }
  }
  const Json* op = j.find("op");
  if (op == nullptr || !op->is_string()) {
    throw RequestError{"bad_request", "missing string field \"op\""};
  }
  req.op = op->as_string();
  req.timeout_ms = static_cast<int>(
      get_int(j, "timeout_ms", cfg.default_timeout_ms, 0, kMaxTimeoutMs));
}

/// Fills `req` in place — the envelope lands before any payload
/// parsing, so error replies for malformed payloads still echo op/id.
void parse_request(const Json& j, const ServiceConfig& cfg, Request& req) {
  parse_envelope(j, req, cfg);
  if (req.op == "classify") {
    ClassifyRequest r;
    r.problem = get_string(j, "problem");
    (void)problem_by_name(r.problem);  // unknown_problem before any work
    const Graph g = parse_graph(j, kMaxClassifyNodes);
    r.numbering = parse_numbering(j, g);
    r.max_rounds = static_cast<int>(get_int(j, "max_rounds", 8, 1, 64));
    req.payload = std::move(r);
  } else if (req.op == "modelcheck") {
    ModelcheckRequest r;
    r.formula = parse_formula(get_string(j, "formula"));
    r.model = parse_kripke(j);
    if (r.formula.max_prop() > r.model.num_props()) {
      throw RequestError{"bad_formula",
                         "formula mentions q" +
                             std::to_string(r.formula.max_prop()) +
                             " but the model has " +
                             std::to_string(r.model.num_props()) +
                             " propositions"};
    }
    req.payload = std::move(r);
  } else if (req.op == "run") {
    RunRequest r;
    r.machine = get_string(j, "machine");
    const Graph g = parse_graph(j, kMaxNodes);
    (void)machine_by_name(r.machine, std::max(1, g.max_degree()));
    r.numbering = parse_numbering(j, g);
    r.max_rounds =
        static_cast<int>(get_int(j, "max_rounds", 1000, 1, 100000));
    req.payload = std::move(r);
  } else if (req.op == "canon") {
    CanonRequest r;
    r.kind = get_string(j, "kind");
    if (r.kind == "graph") {
      r.graph = parse_graph(j, kMaxNodes);
      r.input_encoding = "g;" + r.graph.to_string();
    } else if (r.kind == "pn") {
      const Graph g = parse_graph(j, kMaxNodes);
      r.numbering = parse_numbering(j, g);
      r.input_encoding = "p;" + r.numbering.to_string();
    } else if (r.kind == "kripke") {
      r.kripke = parse_kripke(j);
      r.input_encoding = "k;" + r.kripke.to_string();
    } else {
      throw RequestError{"bad_request", "unknown kind \"" + r.kind +
                                            "\" (graph | pn | kripke)"};
    }
    req.payload = std::move(r);
  } else if (req.op == "stats") {
    req.payload = StatsRequest{};
  } else if (req.op == "metrics") {
    req.payload = MetricsRequest{};
  } else {
    throw RequestError{"unknown_op", "unknown op \"" + req.op + "\""};
  }
}

// --- Endpoint handlers ------------------------------------------------------
// Each handler returns the *result body*; the caller wraps the envelope.
// Cache-key soundness per endpoint is argued in DESIGN.md "Serving and
// the memo-cache": blobs are stored in canonical coordinates and keys
// carry the full certificate (not merely its 64-bit hash), so hash
// collisions degrade to probe steps, never to wrong answers.

void count_cache_outcome(const char* op, bool hit, RequestObs& robs) {
  std::string name = hit ? "serve.cache_hits." : "serve.cache_misses.";
  name += op;
  bump_work(name);
  robs.cache = hit ? "hit" : "miss";
}

std::string handle_classify(MemoCache& cache, const ClassifyRequest& r,
                            const CancelToken* cancel, RequestObs& robs) {
  WM_SCOPE("serve.classify");
  bump_work("serve.requests.classify");
  const Graph& g = r.numbering.graph();
  const int delta = g.max_degree();
  // The whole reply is isomorphism-invariant (class names, round counts,
  // block counts — no per-node data), so the blob is the result body
  // itself, keyed on the port numbering's complete certificate.
  std::string key = "classify\x1f" + r.problem + "\x1f" +
                    std::to_string(r.max_rounds) + "\x1f" +
                    canonical_form(r.numbering, cancel).certificate;
  robs.key = hash_hex(certificate_hash(key));
  const MemoCache::Result res = cache.get_or_compute(key, [&] {
    poll_cancel(cancel);
    const ProblemPtr problem = problem_by_name(r.problem);
    const ScopedInstance inst =
        instance_for(*problem, r.numbering, cancel);
    std::string body = "{\"problem\": " + json_quoted(r.problem) +
                       ", \"n\": " + std::to_string(g.num_nodes()) +
                       ", \"delta\": " + std::to_string(delta) +
                       ", \"max_rounds\": " + std::to_string(r.max_rounds) +
                       ", \"classes\": [";
    bool first = true;
    for (const ProblemClass c : all_problem_classes()) {
      const SolvabilityReport rep =
          analyse_solvability({inst}, c, delta, r.max_rounds, cancel);
      if (!first) body += ", ";
      first = false;
      body += "{\"class\": " + json_quoted(problem_class_name(c)) +
              ", \"logic\": " + json_quoted(logic_name_for(c)) +
              ", \"min_rounds\": " +
              (rep.min_rounds ? std::to_string(*rep.min_rounds) : "null") +
              ", \"fixpoint_rounds\": " +
              std::to_string(rep.fixpoint_rounds) +
              ", \"blocks\": " + std::to_string(rep.blocks) + "}";
    }
    body += "]}";
    return body;
  });
  count_cache_outcome("classify", res.hit, robs);
  return res.value;
}

std::string handle_modelcheck(MemoCache& cache, const ModelcheckRequest& r,
                              const CancelToken* cancel, RequestObs& robs) {
  WM_SCOPE("serve.modelcheck");
  bump_work("serve.requests.modelcheck");
  const int n = r.model.num_states();
  // Key: normalised formula text + the model's complete certificate.
  // The blob holds the denotation in canonical coordinates — bit
  // labelling[v] speaks for state v — because denotations are definable
  // sets: every automorphism fixes them (the blob is well-defined) and
  // isomorphisms transport them (the blob is shareable). The querying
  // model's own labelling maps the blob back below.
  const CanonicalForm cf = canonical_form(r.model, cancel);
  std::string key =
      "modelcheck\x1f" + r.formula.to_string() + "\x1f" + cf.certificate;
  robs.key = hash_hex(certificate_hash(key));
  const MemoCache::Result res = cache.get_or_compute(key, [&] {
    poll_cancel(cancel);
    const Bitset bits = model_check_bits(r.model, r.formula);
    std::string blob(static_cast<std::size_t>(n), '0');
    for (int v = 0; v < n; ++v) {
      if (bits.test(static_cast<std::size_t>(v))) {
        blob[static_cast<std::size_t>(cf.labelling[v])] = '1';
      }
    }
    return blob;
  });
  count_cache_outcome("modelcheck", res.hit, robs);
  std::vector<int> holds(static_cast<std::size_t>(n), 0);
  int count = 0;
  for (int v = 0; v < n; ++v) {
    if (res.value.at(static_cast<std::size_t>(cf.labelling[v])) == '1') {
      holds[static_cast<std::size_t>(v)] = 1;
      ++count;
    }
  }
  return "{\"formula\": " + json_quoted(r.formula.to_string()) +
         ", \"states\": " + std::to_string(n) +
         ", \"count\": " + std::to_string(count) +
         ", \"holds\": " + ints_json(holds) + "}";
}

std::string handle_run(MemoCache& cache, const RunRequest& r,
                       const CancelToken* cancel, RequestObs& robs) {
  WM_SCOPE("serve.run");
  bump_work("serve.requests.run");
  const Graph& g = r.numbering.graph();
  const int n = g.num_nodes();
  // Anonymous deterministic machines are equivariant under
  // port-numbered-graph isomorphism, so outputs are transported exactly
  // like denotations; round counts and message totals are invariants.
  // Blob: "stopped rounds sent total max\n" + canonical-coordinate
  // outputs (empty when the run aborted at max_rounds).
  const CanonicalForm cf = canonical_form(r.numbering, cancel);
  std::string key = "run\x1f" + r.machine + "\x1f" +
                    std::to_string(r.max_rounds) + "\x1f" + cf.certificate;
  robs.key = hash_hex(certificate_hash(key));
  const MemoCache::Result res = cache.get_or_compute(key, [&] {
    poll_cancel(cancel);
    const auto machine = machine_by_name(r.machine, std::max(1, g.max_degree()));
    ExecutionContext ctx;  // one per request, never shared
    ExecutionOptions opts;
    opts.max_rounds = r.max_rounds;
    opts.cancel = cancel;
    const ExecutionResult er = execute(*machine, r.numbering, ctx, opts);
    std::string blob = std::string(er.stopped ? "1" : "0") + " " +
                       std::to_string(er.rounds) + " " +
                       std::to_string(er.stats.messages_sent) + " " +
                       std::to_string(er.stats.total_size) + " " +
                       std::to_string(er.stats.max_size) + "\n";
    if (er.stopped) {
      const std::vector<int> outputs = er.outputs_as_ints();
      std::vector<int> canon(outputs.size());
      for (int v = 0; v < n; ++v) {
        canon[static_cast<std::size_t>(cf.labelling[v])] =
            outputs[static_cast<std::size_t>(v)];
      }
      for (std::size_t i = 0; i < canon.size(); ++i) {
        if (i > 0) blob += ' ';
        blob += std::to_string(canon[i]);
      }
    }
    return blob;
  });
  count_cache_outcome("run", res.hit, robs);

  // Decode the blob and transport outputs back through this request's
  // own canonical labelling.
  const std::size_t nl = res.value.find('\n');
  bool stopped = false;
  long long rounds = 0, sent = 0, total = 0, max_size = 0;
  {
    int stopped_int = 0;
    std::sscanf(res.value.c_str(), "%d %lld %lld %lld %lld", &stopped_int,
                &rounds, &sent, &total, &max_size);
    stopped = stopped_int != 0;
  }
  std::string body = "{\"machine\": " + json_quoted(r.machine) +
                     ", \"stopped\": " + (stopped ? "true" : "false") +
                     ", \"rounds\": " + std::to_string(rounds) +
                     ", \"outputs\": ";
  if (stopped) {
    std::vector<int> canon;
    canon.reserve(static_cast<std::size_t>(n));
    {
      const char* s = res.value.c_str() + nl + 1;
      char* end = nullptr;
      for (int i = 0; i < n; ++i) {
        canon.push_back(static_cast<int>(std::strtol(s, &end, 10)));
        s = end;
      }
    }
    std::vector<int> outputs(static_cast<std::size_t>(n), 0);
    for (int v = 0; v < n; ++v) {
      outputs[static_cast<std::size_t>(v)] =
          canon[static_cast<std::size_t>(cf.labelling[v])];
    }
    body += ints_json(outputs);
  } else {
    body += "null";
  }
  body += ", \"messages\": {\"sent\": " + std::to_string(sent) +
          ", \"total_size\": " + std::to_string(total) +
          ", \"max_size\": " + std::to_string(max_size) + "}}";
  return body;
}

std::string handle_canon(MemoCache& cache, const CanonRequest& r,
                         const CancelToken* cancel, RequestObs& robs) {
  WM_SCOPE("serve.canon");
  bump_work("serve.requests.canon");
  // Computing the certificate IS the work here, so the key is the
  // normalised input encoding (exact-repeat cache) and the blob is the
  // result body — including the labelling, which is well-defined
  // because the key pins the input representation exactly.
  std::string key = "canon\x1f" + r.kind + "\x1f" + r.input_encoding;
  robs.key = hash_hex(certificate_hash(key));
  const MemoCache::Result res = cache.get_or_compute(key, [&] {
    poll_cancel(cancel);
    CanonicalForm cf;
    int n = 0;
    if (r.kind == "graph") {
      cf = canonical_form(r.graph, cancel);
      n = r.graph.num_nodes();
    } else if (r.kind == "pn") {
      cf = canonical_form(r.numbering, cancel);
      n = r.numbering.graph().num_nodes();
    } else {
      cf = canonical_form(r.kripke, cancel);
      n = r.kripke.num_states();
    }
    return "{\"kind\": " + json_quoted(r.kind) +
           ", \"n\": " + std::to_string(n) + ", \"hash\": " +
           json_quoted(hash_hex(certificate_hash(cf.certificate))) +
           ", \"certificate_bytes\": " +
           std::to_string(cf.certificate.size()) +
           ", \"labelling\": " + ints_json(cf.labelling) + "}";
  });
  count_cache_outcome("canon", res.hit, robs);
  return res.value;
}

/// The stats "window" section: what happened between the previous
/// window capture and this stats call. Every stats poll captures, so two
/// polls bracketing a request batch report the batch's exact work-counter
/// deltas (work counters are deterministic; rates and latency quantiles
/// remain info-kind telemetry).
std::string window_json(double window_secs) {
  obs::window().capture();
  const obs::WindowDelta wd = obs::window().delta(window_secs);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", wd.valid ? wd.seconds : 0.0);
  std::string out = "{\"seconds\": ";
  out += buf;
  out += ", \"captures\": " + std::to_string(obs::window().captures());
  std::uint64_t requests = 0;
  std::string work = "{";
  bool first = true;
  for (const auto& [key, value] : wd.work) {
    if (key.rfind("serve.", 0) != 0) continue;
    if (key.rfind("serve.requests.", 0) == 0) requests += value;
    if (!first) work += ", ";
    first = false;
    work += json_quoted(key) + ": " + std::to_string(value);
  }
  work += "}";
  out += ", \"requests\": " + std::to_string(requests);
  const double rps = wd.valid && wd.seconds > 0
                         ? static_cast<double>(requests) / wd.seconds
                         : 0.0;
  std::snprintf(buf, sizeof buf, "%.3f", rps);
  out += ", \"requests_per_sec\": ";
  out += buf;
  out += ", \"work\": " + work + "}";
  return out;
}

std::string handle_stats(const MemoCache& cache, const ServiceConfig& cfg) {
  WM_SCOPE("serve.stats");
  bump_work("serve.requests.stats");
  const MemoCache::Stats cs = cache.stats();
  return "{\"counters\": {\"work\": " +
         obs::counters_json(obs::CounterKind::kWork) +
         ", \"info\": " + obs::counters_json(obs::CounterKind::kInfo) +
         "}, \"timings\": " + obs::timings_json() +
         ", \"cache\": {\"entries\": " + std::to_string(cs.entries) +
         ", \"capacity\": " + std::to_string(cs.capacity) +
         ", \"hits\": " + std::to_string(cs.hits) +
         ", \"misses\": " + std::to_string(cs.misses) +
         ", \"evictions\": " + std::to_string(cs.evictions) +
         ", \"bypasses\": " + std::to_string(cs.bypasses) +
         "}, \"window\": " + window_json(cfg.window_secs) +
         ", \"manifest\": " + obs::manifest_json(cfg.threads) + "}";
}

std::string handle_metrics(const MemoCache& cache, const ServiceConfig& cfg) {
  WM_SCOPE("serve.metrics");
  // Bump before rendering so the exposition's serve_requests_total
  // includes this very request — scrape totals then match requests sent.
  bump_work("serve.requests.metrics");
  obs::window().capture();
  const std::string text =
      metrics_exposition(cache.stats(), cfg.window_secs);
  return "{\"format\": \"prometheus-0.0.4\", \"text\": " + json_quoted(text) +
         "}";
}

}  // namespace

Service::Service(const ServiceConfig& cfg)
    : cfg_(cfg), cache_(cfg.cache_capacity) {}

std::string Service::handle_line(std::string_view line) {
  // Request-id context: one monotone id per line, bound to this thread
  // for the whole handling frame so log lines and WM_TRACE spans emitted
  // underneath (engine, solvability, memo-cache) all carry it. The
  // request's own scope opens inside it, so its span carries the id too.
  const std::uint64_t rid = obs::next_request_id();
  obs::RequestIdScope rid_scope(rid);
  WM_SCOPE("serve.request");
  const auto begin = std::chrono::steady_clock::now();
  RequestObs robs;
  Request req;
  const char* status = "ok";
  std::string error_code;
  std::string reply;
  if (line.size() > cfg_.max_request_bytes) {
    status = "error";
    error_code = "oversized";
    reply = error_reply("", "", "oversized",
                        "request exceeds " +
                            std::to_string(cfg_.max_request_bytes) +
                            " bytes");
  } else {
    try {
      const Json j = parse_json(line);
      parse_request(j, cfg_, req);
      // The deadline token lives on this frame; drivers poll it at their
      // natural boundaries (util/cancel.hpp).
      std::unique_ptr<CancelToken> deadline;
      if (req.timeout_ms > 0) {
        deadline = std::make_unique<CancelToken>(
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(req.timeout_ms));
        robs.deadline = "ok";
      }
      const CancelToken* cancel = deadline.get();
      std::string body;
      if (const auto* r = std::get_if<ClassifyRequest>(&req.payload)) {
        body = handle_classify(cache_, *r, cancel, robs);
      } else if (const auto* r =
                     std::get_if<ModelcheckRequest>(&req.payload)) {
        body = handle_modelcheck(cache_, *r, cancel, robs);
      } else if (const auto* r = std::get_if<RunRequest>(&req.payload)) {
        body = handle_run(cache_, *r, cancel, robs);
      } else if (const auto* r = std::get_if<CanonRequest>(&req.payload)) {
        body = handle_canon(cache_, *r, cancel, robs);
      } else if (std::get_if<MetricsRequest>(&req.payload) != nullptr) {
        body = handle_metrics(cache_, cfg_);
      } else {
        body = handle_stats(cache_, cfg_);
      }
      reply = ok_reply(req.op, req.id_echo, body);
    } catch (const RequestError& e) {
      status = "error";
      error_code = e.code;
      reply = error_reply(req.op, req.id_echo, e.code, e.message);
    } catch (const JsonError& e) {
      status = "error";
      error_code = "parse_error";
      reply = error_reply(req.op, req.id_echo, "parse_error", e.what());
    } catch (const ParseError& e) {
      status = "error";
      error_code = "bad_formula";
      reply = error_reply(req.op, req.id_echo, "bad_formula", e.what());
    } catch (const CancelledError& e) {
      status = "error";
      error_code = "deadline";
      robs.deadline = "expired";
      reply = error_reply(req.op, req.id_echo, "deadline", e.what());
    } catch (const std::invalid_argument& e) {
      // instance_for's "no unique solution" family and kin: the request
      // was well-formed but asks for something the endpoint cannot do.
      status = "error";
      error_code = "unsupported";
      reply = error_reply(req.op, req.id_echo, "unsupported", e.what());
    } catch (const std::exception& e) {
      status = "error";
      error_code = "internal";
      reply = error_reply(req.op, req.id_echo, "internal", e.what());
    }
  }
  // Access log: one structured line per request when WM_LOG is armed,
  // plus a warning above the WM_SLOW_MS threshold. Everything below is
  // a relaxed load and an early return when logging is off.
  const double ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - begin)
          .count();
  if (obs::log_enabled(obs::LogLevel::kInfo)) {
    obs::LogEvent(obs::LogLevel::kInfo, "request")
        .str("op", req.op.empty() ? "?" : req.op)
        .str("cache", robs.cache)
        .str("key", robs.key.empty() ? "-" : robs.key)
        .str("deadline", robs.deadline)
        .str("status", status)
        .str("code", error_code.empty() ? "-" : error_code)
        .num("bytes_in", static_cast<std::int64_t>(line.size()))
        .num("bytes_out", static_cast<std::int64_t>(reply.size()))
        .dbl("ms", ms);
  }
  const double slow_ms = obs::slow_threshold_ms();
  if (slow_ms > 0 && ms >= slow_ms &&
      obs::log_enabled(obs::LogLevel::kWarn)) {
    obs::LogEvent(obs::LogLevel::kWarn, "slow_request")
        .str("op", req.op.empty() ? "?" : req.op)
        .str("cache", robs.cache)
        .str("status", status)
        .dbl("ms", ms)
        .dbl("threshold_ms", slow_ms);
  }
  return reply;
}

}  // namespace wm::serve
