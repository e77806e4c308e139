#include "runtime/class_checker.hpp"

#include <sstream>
#include <stdexcept>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"

namespace wm {

std::string ClassCheckReport::to_string() const {
  std::ostringstream out;
  out << "multiset=" << (multiset_invariant ? "ok" : "VIOLATED")
      << " set=" << (set_invariant ? "ok" : "VIOLATED")
      << " broadcast=" << (broadcast_invariant ? "ok" : "VIOLATED")
      << "; probed " << rounds_executed
      << (rounds_executed == 1 ? " round" : " rounds") << " on " << nodes
      << (nodes == 1 ? " node" : " nodes") << ", " << transitions_checked
      << " transitions, " << messages_checked << " messages";
  return out.str();
}

ClassCheckReport check_class_invariance(const StateMachine& m,
                                        const PortNumbering& p, Rng& rng,
                                        int trials, int max_rounds) {
  ExecutionContext ctx;
  return check_class_invariance(m, p, rng, ctx, trials, max_rounds);
}

ClassCheckReport check_class_invariance(const StateMachine& m,
                                        const PortNumbering& p, Rng& rng,
                                        ExecutionContext& ctx, int trials,
                                        int max_rounds) {
  if (m.algebraic_class().receive != ReceiveMode::Vector) {
    throw std::invalid_argument(
        "check_class_invariance: requires a Vector-mode machine");
  }
  WM_SCOPE("classcheck.run");
  WM_COUNT(classcheck.runs);
  const Graph& g = p.graph();
  const int n = g.num_nodes();
  ClassCheckReport report;
  report.nodes = n;

  std::vector<Value>& state = ctx.state;
  state.assign(static_cast<std::size_t>(n), Value());
  for (NodeId v = 0; v < n; ++v) state[v] = m.init(g.degree(v));

  const Value m0 = Value::unit();
  const bool broadcast = m.algebraic_class().send == SendMode::Broadcast;

  std::vector<std::vector<Value>>& outgoing = ctx.outgoing;
  outgoing.resize(static_cast<std::size_t>(n));

  for (int t = 0; t < max_rounds; ++t) {
    bool all_stopped = true;
    for (NodeId v = 0; v < n; ++v) {
      if (!m.is_stopping(state[v])) all_stopped = false;
    }
    if (all_stopped) break;
    ++report.rounds_executed;

    for (NodeId v = 0; v < n; ++v) {
      const int d = g.degree(v);
      outgoing[v].resize(static_cast<std::size_t>(d));
      if (m.is_stopping(state[v])) {
        for (int i = 0; i < d; ++i) outgoing[v][i] = m0;
        continue;
      }
      for (int i = 1; i <= d; ++i) outgoing[v][i - 1] = m.message(state[v], i);
      // Broadcast invariance: all ports carry the same message.
      for (int i = 1; i < d; ++i) {
        ++report.messages_checked;
        if (outgoing[v][i] != outgoing[v][0]) report.broadcast_invariant = false;
      }
    }
    (void)broadcast;

    std::vector<Value>& next = ctx.next;
    next.assign(static_cast<std::size_t>(n), Value());
    for (NodeId u = 0; u < n; ++u) {
      if (m.is_stopping(state[u])) {
        next[u] = state[u];
        continue;
      }
      const int d = g.degree(u);
      ValueVec inbox(static_cast<std::size_t>(d));
      for (int i = 1; i <= d; ++i) {
        const PortRef src = p.backward({u, i});
        inbox[i - 1] = outgoing[src.node][src.index - 1];
      }
      const Value base = m.transition(state[u], Value::tuple(inbox), d);
      ++report.transitions_checked;
      for (int trial = 0; trial < trials; ++trial) {
        // Multiset invariance: permute the inbox.
        ValueVec perm = inbox;
        rng.shuffle(perm);
        if (m.transition(state[u], Value::tuple(perm), d) != base) {
          report.multiset_invariant = false;
        }
        // Set invariance: replace a random entry by a copy of another
        // entry *already present* elsewhere, preserving the set but not
        // the multiset — only meaningful with >= 2 distinct entries.
        if (d >= 2) {
          ValueVec dup = inbox;
          const std::size_t i = rng.below(dup.size());
          const std::size_t j = rng.below(dup.size());
          if (i != j) {
            const Value removed = dup[i];
            dup[i] = dup[j];
            // Set preserved only if `removed` still occurs somewhere.
            bool still_present = false;
            for (const Value& x : dup) {
              if (x == removed) still_present = true;
            }
            if (still_present &&
                m.transition(state[u], Value::tuple(dup), d) != base) {
              report.set_invariant = false;
            }
          }
        }
      }
      next[u] = base;
    }
    state.swap(next);
  }
  WM_COUNT_ADD(classcheck.rounds, report.rounds_executed);
  WM_COUNT_ADD(classcheck.transitions, report.transitions_checked);
  return report;
}

}  // namespace wm
