// The wm_serve protocol, pinned three ways:
//
//  1. *Goldens*: reply lines are byte-exact strings. The protocol
//     promises a fixed field order and fixed separators precisely so
//     clients can be this literal; any drift in serialisation is a
//     wire-format break and should fail loudly here.
//  2. *Malformed-input table*: every way a request can be wrong maps to
//     a structured {"ok": false, "error": {code}} reply — never a
//     crash, never an exception out of Service::handle_line.
//  3. *Differential*: served answers equal direct library calls — for
//     fresh entries (compute path) and for isomorphic re-queries served
//     from the memo-cache through canonical-coordinate transport, which
//     is the part of the cache design that could silently corrupt
//     per-node data if the labelling algebra were wrong.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/classification.hpp"
#include "core/solvability.hpp"
#include "graph/canonical.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "logic/kripke.hpp"
#include "logic/model_checker.hpp"
#include "logic/parser.hpp"
#include "logic/random_formula.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/log.hpp"
#include "port/port_numbering.hpp"
#include "problems/catalogue.hpp"
#include "runtime/engine.hpp"
#include "algorithms/machines.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "support/canon_harness.hpp"
#include "support/diff_harness.hpp"
#include "util/rng.hpp"

namespace wm::serve {
namespace {

std::string edges_json(const Graph& g) {
  std::string out = "[";
  bool first = true;
  for (int u = 0; u < g.num_nodes(); ++u) {
    for (const int v : g.neighbours(u)) {
      if (v < u) continue;
      if (!first) out += ", ";
      first = false;
      out += '[';
      out += std::to_string(u);
      out += ", ";
      out += std::to_string(v);
      out += ']';
    }
  }
  out += "]";
  return out;
}

std::string graph_json(const Graph& g) {
  std::string out = "{\"n\": ";
  out += std::to_string(g.num_nodes());
  out += ", \"edges\": ";
  out += edges_json(g);
  out += '}';
  return out;
}

// --- 1. Byte-exact goldens --------------------------------------------------

TEST(ServeGolden, RunReplyBytes) {
  Service service;
  EXPECT_EQ(
      service.handle_line(
          R"({"op": "run", "id": 7, "machine": "degree-parity", )"
          R"("graph": {"n": 3, "edges": [[0, 1], [1, 2]]}})"),
      R"({"ok": true, "id": 7, "op": "run", "result": {"machine": )"
      R"("degree-parity", "stopped": true, "rounds": 0, "outputs": [1, 0, 1], )"
      R"("messages": {"sent": 0, "total_size": 0, "max_size": 0}}})");
}

TEST(ServeGolden, ModelcheckReplyBytes) {
  Service service;
  EXPECT_EQ(
      service.handle_line(
          R"({"op": "modelcheck", "formula": "<*,*> T", "model": )"
          R"({"graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, "variant": "--"}})"),
      R"({"ok": true, "op": "modelcheck", "result": {"formula": "<*,*> T", )"
      R"("states": 3, "count": 3, "holds": [1, 1, 1]}})");
}

TEST(ServeGolden, ModelcheckExplicitModelBytes) {
  Service service;
  EXPECT_EQ(
      service.handle_line(
          R"({"op": "modelcheck", "formula": "[*,*] q1", "model": )"
          R"({"states": 3, "props": 1, "edges": [[0, 0, 0, 1], [0, 0, 1, 2]], )"
          R"("valuation": [[1, 2]]}})"),
      R"({"ok": true, "op": "modelcheck", "result": {"formula": "[*,*] q1", )"
      R"("states": 3, "count": 2, "holds": [0, 1, 1]}})");
}

TEST(ServeGolden, CanonReplyBytes) {
  Service service;
  EXPECT_EQ(
      service.handle_line(
          R"({"op": "canon", "kind": "graph", "graph": )"
          R"({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}})"),
      R"({"ok": true, "op": "canon", "result": {"kind": "graph", "n": 4, )"
      R"("hash": "a6fcae8d5556aaa7", "certificate_bytes": 51, )"
      R"("labelling": [0, 1, 3, 2]}})");
}

TEST(ServeGolden, ClassifyReplyBytes) {
  Service service;
  EXPECT_EQ(
      service.handle_line(
          R"({"op": "classify", "id": "c1", "problem": "degree-parity", )"
          R"("graph": {"n": 2, "edges": [[0, 1]]}})"),
      R"({"ok": true, "id": "c1", "op": "classify", "result": {"problem": )"
      R"("degree-parity", "n": 2, "delta": 1, "max_rounds": 8, "classes": )"
      R"([{"class": "SB", "logic": "ML", "min_rounds": 0, )"
      R"("fixpoint_rounds": 0, "blocks": 1}, {"class": "MB", "logic": "GML", )"
      R"("min_rounds": 0, "fixpoint_rounds": 0, "blocks": 1}, {"class": "VB", )"
      R"("logic": "MML", "min_rounds": 0, "fixpoint_rounds": 0, "blocks": 1}, )"
      R"({"class": "SV", "logic": "MML", "min_rounds": 0, )"
      R"("fixpoint_rounds": 0, "blocks": 1}, {"class": "MV", "logic": "GMML", )"
      R"("min_rounds": 0, "fixpoint_rounds": 0, "blocks": 1}, {"class": "VV", )"
      R"("logic": "MML", "min_rounds": 0, "fixpoint_rounds": 0, "blocks": 1}, )"
      R"({"class": "VVc", "logic": "MML", "min_rounds": 0, )"
      R"("fixpoint_rounds": 0, "blocks": 1}]}})");
}

TEST(ServeGolden, IdenticalRequestIsACacheHitWithIdenticalBytes) {
  Service service;
  const std::string req =
      R"({"op": "run", "machine": "odd-odd", "graph": )"
      R"({"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}})";
  const std::string first = service.handle_line(req);
  const MemoCache::Stats before = service.cache().stats();
  const std::string second = service.handle_line(req);
  const MemoCache::Stats after = service.cache().stats();
  EXPECT_EQ(first, second);
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(ServeGolden, StatsReplyIsWellFormed) {
  // Counters are process-global, so stats cannot be byte-pinned here;
  // pin its shape instead.
  Service service;
  service.handle_line(
      R"({"op": "canon", "kind": "graph", "graph": {"n": 1, "edges": []}})");
  const std::string reply = service.handle_line(R"({"op": "stats"})");
  const Json j = parse_json(reply);
  ASSERT_NE(j.find("ok"), nullptr);
  EXPECT_TRUE(j.find("ok")->as_bool());
  const Json* result = j.find("result");
  ASSERT_NE(result, nullptr);
  for (const char* key : {"counters", "timings", "cache", "manifest"}) {
    EXPECT_NE(result->find(key), nullptr) << key;
  }
  const Json* cache = result->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GE(cache->find("misses")->as_int(), 1);
}

// --- 2. Malformed input -----------------------------------------------------

struct BadCase {
  const char* what;
  const char* line;
  const char* code;
};

TEST(ServeErrors, MalformedInputTable) {
  Service service;
  const std::vector<BadCase> cases = {
      {"truncated json", R"({"op": "run")", "parse_error"},
      {"not json at all", "hello there", "parse_error"},
      {"top-level array", R"([1, 2, 3])", "bad_request"},
      {"empty object", R"({})", "bad_request"},
      {"op wrong type", R"({"op": 7})", "bad_request"},
      {"unknown op", R"({"op": "frobnicate"})", "unknown_op"},
      {"id wrong type",
       R"({"op": "stats", "id": [1]})", "bad_request"},
      {"negative timeout",
       R"({"op": "stats", "timeout_ms": -5})", "bad_request"},
      {"unknown problem",
       R"({"op": "classify", "problem": "warp", )"
       R"("graph": {"n": 1, "edges": []}})",
       "unknown_problem"},
      {"unknown machine",
       R"({"op": "run", "machine": "warp", "graph": {"n": 1, "edges": []}})",
       "unknown_machine"},
      {"bad formula",
       R"({"op": "modelcheck", "formula": "<<", )"
       R"("model": {"states": 1, "props": 0}})",
       "bad_formula"},
      {"formula names absent proposition",
       R"({"op": "modelcheck", "formula": "q5", )"
       R"("model": {"states": 1, "props": 1}})",
       "bad_formula"},
      {"missing graph",
       R"({"op": "run", "machine": "odd-odd"})", "bad_request"},
      {"graph n too large",
       R"({"op": "run", "machine": "odd-odd", )"
       R"("graph": {"n": 129, "edges": []}})",
       "bad_request"},
      {"classify n too large for the output scan",
       R"({"op": "classify", "problem": "degree-parity", )"
       R"("graph": {"n": 17, "edges": []}})",
       "bad_request"},
      {"self-loop", R"({"op": "run", "machine": "odd-odd", )"
                    R"("graph": {"n": 2, "edges": [[0, 0]]}})",
       "bad_request"},
      {"duplicate edge",
       R"({"op": "run", "machine": "odd-odd", )"
       R"("graph": {"n": 2, "edges": [[0, 1], [1, 0]]}})",
       "bad_request"},
      {"edge out of range",
       R"({"op": "run", "machine": "odd-odd", )"
       R"("graph": {"n": 2, "edges": [[0, 2]]}})",
       "bad_request"},
      {"edge not a pair",
       R"({"op": "run", "machine": "odd-odd", )"
       R"("graph": {"n": 2, "edges": [[0]]}})",
       "bad_request"},
      {"unknown numbering",
       R"({"op": "run", "machine": "odd-odd", )"
       R"("graph": {"n": 2, "edges": [[0, 1]]}, "numbering": "magic"})",
       "bad_request"},
      {"symmetric numbering on irregular graph",
       R"({"op": "run", "machine": "degree-parity", )"
       R"("graph": {"n": 3, "edges": [[0, 1], [1, 2]]}, )"
       R"("numbering": "symmetric"})",
       "unsupported"},
      {"unknown variant",
       R"({"op": "modelcheck", "formula": "T", "model": )"
       R"({"graph": {"n": 2, "edges": [[0, 1]]}, "variant": "+*"}})",
       "bad_request"},
      {"kripke edge out of range",
       R"({"op": "modelcheck", "formula": "T", "model": )"
       R"({"states": 2, "props": 0, "edges": [[0, 0, 0, 5]]}})",
       "bad_request"},
      {"valuation out of range",
       R"({"op": "modelcheck", "formula": "T", "model": )"
       R"({"states": 1, "props": 1, "valuation": [[2, 0]]}})",
       "bad_request"},
      {"canon unknown kind",
       R"({"op": "canon", "kind": "tensor", )"
       R"("graph": {"n": 1, "edges": []}})",
       "bad_request"},
      {"classify non-unique solution",
       R"({"op": "classify", "problem": "leaf-in-star", )"
       R"("graph": {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}})",
       "unsupported"},
  };
  for (const BadCase& c : cases) {
    const std::string reply = service.handle_line(c.line);
    const Json j = parse_json(reply);  // every reply is valid JSON
    ASSERT_NE(j.find("ok"), nullptr) << c.what;
    EXPECT_FALSE(j.find("ok")->as_bool()) << c.what;
    const Json* error = j.find("error");
    ASSERT_NE(error, nullptr) << c.what;
    EXPECT_EQ(error->find("code")->as_string(), c.code)
        << c.what << " -> " << reply;
  }
}

TEST(ServeErrors, OversizedRequestLine) {
  ServiceConfig cfg;
  cfg.max_request_bytes = 64;
  Service service(cfg);
  const std::string big(100, 'x');
  const Json j = parse_json(service.handle_line(big));
  EXPECT_FALSE(j.find("ok")->as_bool());
  EXPECT_EQ(j.find("error")->find("code")->as_string(), "oversized");
}

TEST(ServeErrors, DeadlineAlreadyExpired) {
  // timeout_ms: 1 on a classify with a real output scan: the token is
  // polled inside instance_for / the refinement loop. We cannot force
  // slowness deterministically, so accept either a deadline error or a
  // fast success — what must never happen is a crash or a third shape.
  Service service;
  const std::string reply = service.handle_line(
      R"({"op": "classify", "problem": "degree-parity", "timeout_ms": 1, )"
      R"("graph": {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}})");
  const Json j = parse_json(reply);
  if (!j.find("ok")->as_bool()) {
    EXPECT_EQ(j.find("error")->find("code")->as_string(), "deadline");
  }
}

// --- 3. Differential: served == direct --------------------------------------

std::vector<int> holds_from_reply(const std::string& reply) {
  const Json j = parse_json(reply);
  EXPECT_TRUE(j.find("ok")->as_bool()) << reply;
  std::vector<int> out;
  for (const Json& b : j.find("result")->find("holds")->items()) {
    out.push_back(static_cast<int>(b.as_int()));
  }
  return out;
}

TEST(ServeDifferential, ModelcheckMatchesDirectCalls) {
  // seeds × cases ≥ 500 runs at the default seed set; each case also
  // re-queries an isomorphic copy, exercising cache-hit transport.
  Service service;
  std::uint64_t hit_checked = 0;
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng rng(seed);
    for (int i = 0; i < 50; ++i) {
      const int n = 2 + static_cast<int>(rng.below(6));
      const Graph g = random_connected_graph(n, 3, 1, rng);
      RandomFormulaOptions opts;
      opts.variant = Variant::MinusMinus;
      // kripke_from_graph(p, v) carries delta propositions (degrees).
      opts.num_props = g.max_degree();
      opts.max_depth = 2 + static_cast<int>(rng.below(2));
      const Formula phi = random_formula(rng, opts);

      const PortNumbering p = PortNumbering::identity(g);
      const KripkeModel k = kripke_from_graph(p, Variant::MinusMinus);
      const Bitset direct = model_check_bits(k, phi);

      const std::string req = R"({"op": "modelcheck", "formula": )" +
                              json_quoted(phi.to_string()) +
                              R"(, "model": {"graph": )" + graph_json(g) +
                              R"(, "variant": "--"}})";
      const std::vector<int> served = holds_from_reply(service.handle_line(req));
      ASSERT_EQ(static_cast<int>(served.size()), n);
      for (int v = 0; v < n; ++v) {
        EXPECT_EQ(served[static_cast<std::size_t>(v)],
                  direct.test(static_cast<std::size_t>(v)) ? 1 : 0)
            << "state " << v << " seed " << seed << " case " << i;
      }

      // Isomorphic re-query: relabel the graph, ask again. The answer
      // comes out of the cache (same canonical certificate) and must
      // match a direct check on the relabelled structure.
      const std::vector<int> perm = canontest::random_permutation(n, rng);
      const Graph h = g.relabelled(perm);
      const KripkeModel kh =
          kripke_from_graph(PortNumbering::identity(h), Variant::MinusMinus);
      const Bitset direct_h = model_check_bits(kh, phi);
      const MemoCache::Stats before = service.cache().stats();
      const std::string req_h = R"({"op": "modelcheck", "formula": )" +
                                json_quoted(phi.to_string()) +
                                R"(, "model": {"graph": )" + graph_json(h) +
                                R"(, "variant": "--"}})";
      const std::vector<int> served_h =
          holds_from_reply(service.handle_line(req_h));
      const MemoCache::Stats after = service.cache().stats();
      EXPECT_EQ(after.hits, before.hits + 1)
          << "isomorphic re-query missed the cache (seed " << seed << ")";
      ++hit_checked;
      for (int v = 0; v < n; ++v) {
        EXPECT_EQ(served_h[static_cast<std::size_t>(v)],
                  direct_h.test(static_cast<std::size_t>(v)) ? 1 : 0)
            << "transported state " << v << " seed " << seed << " case " << i;
      }
    }
  }
  EXPECT_GT(hit_checked, 0u);
}

TEST(ServeDifferential, RunMatchesDirectExecution) {
  Service service;
  const std::vector<std::string> machines = {"degree-parity", "odd-odd",
                                             "even-degree", "port-one-parity"};
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng rng(seed);
    for (int i = 0; i < 25; ++i) {
      const int n = 2 + static_cast<int>(rng.below(7));
      const Graph g = random_connected_graph(n, 3, 1, rng);
      const std::string machine =
          machines[rng.below(machines.size())];
      const auto sm = [&] {
        if (machine == "degree-parity") return degree_parity_machine();
        if (machine == "odd-odd") return odd_odd_machine();
        if (machine == "even-degree") return even_degree_machine();
        return port_one_parity_machine();
      }();
      const PortNumbering p = PortNumbering::identity(g);
      const ExecutionResult direct = execute(*sm, p);

      const std::string req = R"({"op": "run", "machine": )" +
                              json_quoted(machine) + R"(, "graph": )" +
                              graph_json(g) + "}";
      const Json j = parse_json(service.handle_line(req));
      ASSERT_TRUE(j.find("ok")->as_bool()) << machine << " seed " << seed;
      const Json* result = j.find("result");
      EXPECT_EQ(result->find("stopped")->as_bool(), direct.stopped);
      EXPECT_EQ(result->find("rounds")->as_int(), direct.rounds);
      if (direct.stopped) {
        const std::vector<int> expected = direct.outputs_as_ints();
        const auto& served = result->find("outputs")->items();
        ASSERT_EQ(static_cast<int>(served.size()), n);
        for (int v = 0; v < n; ++v) {
          EXPECT_EQ(served[static_cast<std::size_t>(v)].as_int(),
                    expected[static_cast<std::size_t>(v)])
              << machine << " node " << v << " seed " << seed;
        }
      }
    }
  }
}

TEST(ServeDifferential, CanonMatchesDirectCanonicalForm) {
  Service service;
  for (const std::uint64_t seed : difftest::seeds_under_test()) {
    Rng rng(seed);
    for (int i = 0; i < 25; ++i) {
      const int n = 1 + static_cast<int>(rng.below(8));
      const Graph g = random_bounded_degree_graph(n, 3, 0.5, rng);
      const CanonicalForm direct = canonical_form(g);

      const std::string req = R"({"op": "canon", "kind": "graph", "graph": )" +
                              graph_json(g) + "}";
      const Json j = parse_json(service.handle_line(req));
      ASSERT_TRUE(j.find("ok")->as_bool()) << "seed " << seed;
      const Json* result = j.find("result");
      char expected_hash[17];
      std::snprintf(expected_hash, sizeof(expected_hash), "%016llx",
                    static_cast<unsigned long long>(
                        certificate_hash(direct.certificate)));
      EXPECT_EQ(result->find("hash")->as_string(), expected_hash);
      EXPECT_EQ(result->find("certificate_bytes")->as_int(),
                static_cast<long long>(direct.certificate.size()));
      const auto& lab = result->find("labelling")->items();
      ASSERT_EQ(lab.size(), direct.labelling.size());
      for (std::size_t v = 0; v < lab.size(); ++v) {
        EXPECT_EQ(lab[v].as_int(), direct.labelling[v]);
      }
    }
  }
}

TEST(ServeDifferential, ClassifyMatchesDirectAnalysis) {
  Service service;
  // classify runs a |Y|^n output scan per request — keep the inputs
  // tiny and the case count low; the endpoint's caching and transport
  // are independent of problem size.
  const Graph g = path_graph(3);
  const ProblemPtr problem = degree_parity_problem();
  const PortNumbering p = PortNumbering::identity(g);
  const ScopedInstance inst = instance_for(*problem, p);
  const std::string req =
      R"({"op": "classify", "problem": "degree-parity", "graph": )" +
      graph_json(g) + "}";
  const Json j = parse_json(service.handle_line(req));
  ASSERT_TRUE(j.find("ok")->as_bool());
  const auto& classes = j.find("result")->find("classes")->items();
  const std::vector<ProblemClass> order = all_problem_classes();
  ASSERT_EQ(classes.size(), order.size());
  for (std::size_t c = 0; c < order.size(); ++c) {
    const SolvabilityReport direct =
        analyse_solvability({inst}, order[c], g.max_degree(), 8);
    EXPECT_EQ(classes[c].find("class")->as_string(),
              problem_class_name(order[c]));
    if (direct.min_rounds.has_value()) {
      EXPECT_EQ(classes[c].find("min_rounds")->as_int(), *direct.min_rounds);
    } else {
      EXPECT_TRUE(classes[c].find("min_rounds")->is_null());
    }
    EXPECT_EQ(classes[c].find("blocks")->as_int(), direct.blocks);
  }
}

// --- 4. Observability: metrics exposition, window deltas, access log --------

#if !defined(WM_OBS_DISABLED)
// Exposition helpers: only the observability tests below use them.

/// The exposition text out of a metrics reply.
std::string exposition_of(const std::string& reply) {
  const Json j = parse_json(reply);
  EXPECT_TRUE(j.find("ok")->as_bool()) << reply;
  EXPECT_EQ(j.find("result")->find("format")->as_string(),
            "prometheus-0.0.4");
  return j.find("result")->find("text")->as_string();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Looks up one sample value by its exact `name{labels}` prefix.
/// Returns "" when the series is absent (distinguishable from "0").
std::string sample_value(const std::string& text, const std::string& series) {
  for (const std::string& line : split_lines(text)) {
    if (line.size() > series.size() && line[series.size()] == ' ' &&
        line.compare(0, series.size(), series) == 0) {
      return line.substr(series.size() + 1);
    }
  }
  return "";
}

/// Text-format 0.0.4 grammar: a line is `# HELP`, `# TYPE`, or
/// `name[{label="value",...}] value` with a strtod-parsable (or +Inf)
/// value. Anything else is a scrape break.
bool valid_exposition_line(const std::string& line) {
  if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
    return true;
  }
  std::size_t pos = 0;
  auto name_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == ':';
  };
  while (pos < line.size() && name_char(line[pos])) ++pos;
  if (pos == 0) return false;
  if (pos < line.size() && line[pos] == '{') {
    const std::size_t close = line.find('}', pos);
    if (close == std::string::npos) return false;
    std::string inside = line.substr(pos + 1, close - pos - 1);
    std::size_t p = 0;
    while (p < inside.size()) {
      const std::size_t eq = inside.find("=\"", p);
      if (eq == std::string::npos) return false;
      const std::size_t endq = inside.find('"', eq + 2);
      if (endq == std::string::npos) return false;
      p = endq + 1;
      if (p < inside.size()) {
        if (inside[p] != ',') return false;
        ++p;
      }
    }
    pos = close + 1;
  }
  if (pos >= line.size() || line[pos] != ' ') return false;
  const std::string v = line.substr(pos + 1);
  if (v == "+Inf") return true;
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  (void)parsed;
  return end == v.c_str() + v.size() && !v.empty();
}
#endif  // !WM_OBS_DISABLED

TEST(ServeMetrics, ExpositionGoldenAtOneShard) {
#if defined(WM_OBS_DISABLED)
  GTEST_SKIP() << "observability compiled out";
#else
  // Counters and histograms are process-global; reset both so the
  // serve_* families below are byte-pinnable. shards=1 and a
  // single-threaded request sequence make every tally closed-form.
  obs::registry().reset();
  obs::histograms().reset();
  ServiceConfig cfg;
  cfg.cache_shards = 1;
  Service service(cfg);

  const std::string req_a =
      R"({"op": "run", "machine": "degree-parity", )"
      R"("graph": {"n": 3, "edges": [[0, 1], [1, 2]]}})";
  const std::string req_b =
      R"({"op": "run", "machine": "odd-odd", )"
      R"("graph": {"n": 2, "edges": [[0, 1]]}})";
  ASSERT_TRUE(parse_json(service.handle_line(req_a)).find("ok")->as_bool());
  ASSERT_TRUE(parse_json(service.handle_line(req_b)).find("ok")->as_bool());
  ASSERT_TRUE(parse_json(service.handle_line(req_a)).find("ok")->as_bool());

  const std::string text =
      exposition_of(service.handle_line(R"({"op": "metrics"})"));

  // 3 run requests (2 misses + 1 hit) and the metrics request itself —
  // which is counted *before* rendering so the scrape includes it.
  EXPECT_EQ(sample_value(text, R"(serve_requests_total{endpoint="run"})"),
            "3");
  EXPECT_EQ(sample_value(text, R"(serve_requests_total{endpoint="metrics"})"),
            "1");
  EXPECT_EQ(sample_value(text, R"(serve_cache_hits_total{endpoint="run"})"),
            "1");
  EXPECT_EQ(sample_value(text, R"(serve_cache_misses_total{endpoint="run"})"),
            "2");
  EXPECT_EQ(sample_value(text, "serve_cache_entries"), "2");
  EXPECT_EQ(sample_value(text, "serve_cache_capacity"), "4096");
  EXPECT_EQ(sample_value(text, "serve_cache_evictions_total"), "0");
  EXPECT_EQ(sample_value(text, "serve_cache_bypasses_total"), "0");
  EXPECT_EQ(
      sample_value(text,
                   R"(serve_request_duration_seconds_bucket{endpoint="run",le="+Inf"})"),
      "3");
  EXPECT_EQ(sample_value(
                text, R"(serve_request_duration_seconds_count{endpoint="run"})"),
            "3");
  EXPECT_EQ(sample_value(text, R"(wm_work_total{counter="serve.requests.run"})"),
            "3");
  EXPECT_NE(sample_value(text, "wm_window_seconds"), "");

  // Every line must clear the scrape grammar, and the run-endpoint
  // cumulative buckets must be monotone up to the +Inf total.
  std::uint64_t prev_bucket = 0;
  for (const std::string& line : split_lines(text)) {
    EXPECT_TRUE(valid_exposition_line(line)) << line;
    const std::string prefix =
        R"(serve_request_duration_seconds_bucket{endpoint="run",le=)";
    if (line.compare(0, prefix.size(), prefix) == 0) {
      const std::uint64_t cum = std::strtoull(
          line.substr(line.rfind(' ') + 1).c_str(), nullptr, 10);
      EXPECT_GE(cum, prev_bucket) << line;
      EXPECT_LE(cum, 3u) << line;
      prev_bucket = cum;
    }
  }
  EXPECT_EQ(prev_bucket, 3u);  // the +Inf bucket equals _count
#endif
}

TEST(ServeMetrics, StatsWindowBracketsRequestBatchExactly) {
#if defined(WM_OBS_DISABLED)
  GTEST_SKIP() << "observability compiled out";
#else
  // Two stats polls bracket a known batch: each poll captures a window
  // snapshot, and since work counters are monotone, the difference of
  // the two polls' per-window run-request deltas is *exactly* the batch
  // size — regardless of wall clock or what ran before in this process.
  // The huge lookback pins both polls to the same base snapshot.
  ServiceConfig cfg;
  cfg.window_secs = 86400.0;
  Service service(cfg);

  auto run_delta = [&]() -> std::int64_t {
    const Json j = parse_json(service.handle_line(R"({"op": "stats"})"));
    EXPECT_TRUE(j.find("ok")->as_bool());
    const Json* window = j.find("result")->find("window");
    EXPECT_NE(window, nullptr);
    EXPECT_GE(window->find("captures")->as_int(), 1);
    const Json* work = window->find("work");
    EXPECT_NE(work, nullptr);
    const Json* runs = work->find("serve.requests.run");
    return runs != nullptr ? runs->as_int() : 0;
  };

  const std::int64_t before = run_delta();
  constexpr int kBatch = 5;
  for (int n = 2; n < 2 + kBatch; ++n) {
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
    const std::string req =
        R"({"op": "run", "machine": "degree-parity", "graph": {"n": )" +
        std::to_string(n) + R"(, "edges": )" + edges + "}}";
    ASSERT_TRUE(parse_json(service.handle_line(req)).find("ok")->as_bool());
  }
  const std::int64_t after = run_delta();
  EXPECT_EQ(after - before, kBatch);
#endif
}

TEST(ServeMetrics, ExpositionReconcilesWithStatsJson) {
#if defined(WM_OBS_DISABLED)
  GTEST_SKIP() << "observability compiled out";
#else
  // Quiesced state: no request of the compute endpoints lands between
  // the metrics scrape and the stats poll, so the exposition and the
  // JSON reply must agree exactly — same registries, same snapshots.
  Service service;
  for (const char* req :
       {R"({"op": "run", "machine": "odd-odd", )"
        R"("graph": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}})",
        R"({"op": "modelcheck", "formula": "<*,*> T", "model": )"
        R"({"variant": "--", "graph": {"n": 2, "edges": [[0, 1]]}}})",
        R"({"op": "canon", "kind": "graph", )"
        R"("graph": {"n": 2, "edges": [[0, 1]]}})",
        R"({"op": "classify", "problem": "degree-parity", )"
        R"("graph": {"n": 2, "edges": [[0, 1]]}})"}) {
    ASSERT_TRUE(parse_json(service.handle_line(req)).find("ok")->as_bool())
        << req;
  }
  const std::string text =
      exposition_of(service.handle_line(R"({"op": "metrics"})"));
  const Json stats =
      parse_json(service.handle_line(R"({"op": "stats"})"));
  const Json* result = stats.find("result");
  ASSERT_NE(result, nullptr);
  const Json* work = result->find("counters")->find("work");
  ASSERT_NE(work, nullptr);
  for (const char* ep : {"run", "modelcheck", "canon", "classify"}) {
    const Json* counter =
        work->find(std::string("serve.requests.") + ep);
    ASSERT_NE(counter, nullptr) << ep;
    EXPECT_EQ(sample_value(text, std::string("serve_requests_total{endpoint=\"") +
                                     ep + "\"}"),
              std::to_string(counter->as_int()))
        << ep;
  }
  const Json* cache = result->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(sample_value(text, "serve_cache_entries"),
            std::to_string(cache->find("entries")->as_int()));
  EXPECT_EQ(sample_value(text, "serve_cache_capacity"),
            std::to_string(cache->find("capacity")->as_int()));
  EXPECT_EQ(sample_value(text, "serve_cache_evictions_total"),
            std::to_string(cache->find("evictions")->as_int()));
  EXPECT_EQ(sample_value(text, "serve_cache_bypasses_total"),
            std::to_string(cache->find("bypasses")->as_int()));
#endif
}

TEST(ServeObsLog, AccessLogLinesCarryRequestContext) {
#if defined(WM_OBS_DISABLED)
  GTEST_SKIP() << "observability compiled out";
#else
  const char* path = "serve_access_log_test.jsonl";
  obs::log_open(path);
  Service service;
  const std::string req =
      R"({"op": "run", "machine": "odd-odd", )"
      R"("graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}})";
  service.handle_line(req);       // miss
  service.handle_line(req);       // hit
  service.handle_line("not json");
  obs::set_slow_threshold_ms(1e-6);  // everything is slow
  service.handle_line(R"({"op": "stats"})");
  obs::set_slow_threshold_ms(0);
  obs::log_close();

  std::vector<Json> requests;
  bool saw_slow = false;
  {
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    while (std::getline(in, line)) {
      const Json j = parse_json(line);  // every log line is one object
      const std::string event = j.find("event")->as_string();
      if (event == "request") requests.push_back(parse_json(line));
      if (event == "slow_request") saw_slow = true;
    }
  }
  std::remove(path);

  ASSERT_EQ(requests.size(), 4u);
  std::int64_t prev_rid = 0;
  for (const Json& r : requests) {
    ASSERT_NE(r.find("rid"), nullptr);
    EXPECT_GT(r.find("rid")->as_int(), prev_rid);  // monotone per thread
    prev_rid = r.find("rid")->as_int();
    EXPECT_GE(r.find("ms")->as_double(), 0.0);
    EXPECT_GT(r.find("bytes_out")->as_int(), 0);
  }
  EXPECT_EQ(requests[0].find("op")->as_string(), "run");
  EXPECT_EQ(requests[0].find("cache")->as_string(), "miss");
  EXPECT_EQ(requests[0].find("status")->as_string(), "ok");
  EXPECT_NE(requests[0].find("key")->as_string(), "-");
  EXPECT_EQ(requests[1].find("cache")->as_string(), "hit");
  EXPECT_EQ(requests[1].find("key")->as_string(),
            requests[0].find("key")->as_string());
  EXPECT_EQ(requests[2].find("status")->as_string(), "error");
  EXPECT_EQ(requests[2].find("code")->as_string(), "parse_error");
  EXPECT_TRUE(saw_slow);
#endif
}

}  // namespace
}  // namespace wm::serve
