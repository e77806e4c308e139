#include "runtime/engine.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "util/cancel.hpp"

namespace wm {

namespace {

std::size_t value_size_memo(const Value& v,
                            std::unordered_map<const void*, std::size_t>& memo) {
  if (auto it = memo.find(v.identity()); it != memo.end()) return it->second;
  std::size_t total = 1;
  for (const Value& k : v.items()) total += value_size_memo(k, memo);
  memo.emplace(v.identity(), total);
  return total;
}

}  // namespace

std::size_t value_size(const Value& v) {
  // Simulation histories share structure heavily (Theorems 4 and 8);
  // memoising over node identity makes the size computation linear in
  // the DAG rather than the tree.
  std::unordered_map<const void*, std::size_t> memo;
  return value_size_memo(v, memo);
}

std::string RunSummary::to_string() const {
  std::ostringstream out;
  out << (stopped ? "stopped after " : "aborted at ") << rounds
      << (rounds == 1 ? " round" : " rounds") << " on " << nodes
      << (nodes == 1 ? " node" : " nodes") << "; " << messages_sent
      << (messages_sent == 1 ? " message" : " messages") << " (size total "
      << total_message_size << ", max " << max_message_size << ")";
  return out.str();
}

RunSummary ExecutionResult::summary() const {
  RunSummary s;
  s.stopped = stopped;
  s.rounds = rounds;
  s.nodes = static_cast<int>(final_states.size());
  s.messages_sent = stats.messages_sent;
  s.total_message_size = stats.total_size;
  s.max_message_size = stats.max_size;
  return s;
}

std::vector<int> ExecutionResult::outputs_as_ints() const {
  std::vector<int> out;
  out.reserve(final_states.size());
  for (const Value& s : final_states) {
    out.push_back(static_cast<int>(s.as_int()));
  }
  return out;
}

ExecutionResult execute(const StateMachine& m, const PortNumbering& p,
                        const ExecutionOptions& options) {
  ExecutionContext ctx;
  return execute(m, p, ctx, options);
}

ExecutionResult execute(const StateMachine& m, const PortNumbering& p,
                        ExecutionContext& ctx,
                        const ExecutionOptions& options) {
  const Graph& g = p.graph();
  const int n = g.num_nodes();
  std::vector<Value> state(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) state[v] = m.init(g.degree(v));
  return execute_with_states(m, p, std::move(state), ctx, options);
}

ExecutionResult execute_with_states(const StateMachine& m,
                                    const PortNumbering& p,
                                    std::vector<Value> initial,
                                    const ExecutionOptions& options) {
  ExecutionContext ctx;
  return execute_with_states(m, p, std::move(initial), ctx, options);
}

ExecutionResult execute_with_states(const StateMachine& m,
                                    const PortNumbering& p,
                                    std::vector<Value> initial,
                                    ExecutionContext& ctx,
                                    const ExecutionOptions& options) {
  WM_SCOPE("engine.execute");
  const Graph& g = p.graph();
  const int n = g.num_nodes();
  const AlgebraicClass cls = m.algebraic_class();
  if (initial.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("execute_with_states: wrong state count");
  }
  WM_COUNT(engine.runs);

  ExecutionResult result;
  std::vector<Value>& state = ctx.state;
  state = std::move(initial);
  if (options.record_trace) result.trace.push_back(state);

  auto all_stopped = [&]() {
    for (NodeId v = 0; v < n; ++v) {
      if (!m.is_stopping(state[v])) return false;
    }
    return true;
  };

  const Value m0 = Value::unit();
  std::vector<Value>& next = ctx.next;
  next.assign(static_cast<std::size_t>(n), Value());
  // outgoing[v][i-1]: message v sends to its out-port i this round.
  std::vector<std::vector<Value>>& outgoing = ctx.outgoing;
  outgoing.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    outgoing[v].resize(static_cast<std::size_t>(g.degree(v)));
  }

  int t = 0;
  while (!all_stopped()) {
    poll_cancel(options.cancel);
    if (t >= options.max_rounds) {
      result.stopped = false;
      result.rounds = t;
      result.final_states = std::move(state);
      WM_COUNT_ADD(engine.rounds, t);
      WM_COUNT_ADD(engine.messages, result.stats.messages_sent);
      return result;
    }
    ++t;
    // Phase 1: construct outgoing messages. Stopped nodes send m0
    // (the paper extends mu with mu(y, i) = m0 for y in Y).
    for (NodeId v = 0; v < n; ++v) {
      const int d = g.degree(v);
      if (m.is_stopping(state[v])) {
        for (int i = 0; i < d; ++i) outgoing[v][i] = m0;
        continue;
      }
      if (cls.send == SendMode::Broadcast) {
        // Class enforcement: mu evaluated once, replicated to all ports.
        const Value msg = d > 0 ? m.message(state[v], 1) : m0;
        for (int i = 0; i < d; ++i) outgoing[v][i] = msg;
      } else {
        for (int i = 1; i <= d; ++i) outgoing[v][i - 1] = m.message(state[v], i);
      }
    }
    // Phase 2: deliver and transition.
    for (NodeId u = 0; u < n; ++u) {
      if (m.is_stopping(state[u])) {
        next[u] = state[u];  // absorbing
        continue;
      }
      const int d = g.degree(u);
      ValueVec inbox_vec(static_cast<std::size_t>(d));
      for (int i = 1; i <= d; ++i) {
        // a_{t+1}(u, i) = mu(x_t(v), j) with (v, j) = p^{-1}((u, i)).
        const PortRef src = p.backward({u, i});
        inbox_vec[i - 1] = outgoing[src.node][src.index - 1];
      }
      for (const Value& msg : inbox_vec) {
        if (!msg.is_unit()) {
          ++result.stats.messages_sent;
          const std::size_t sz = value_size(msg);
          result.stats.total_size += sz;
          result.stats.max_size = std::max(result.stats.max_size, sz);
        }
      }
      Value inbox;
      switch (cls.receive) {
        case ReceiveMode::Vector:
          inbox = Value::tuple(std::move(inbox_vec));
          break;
        case ReceiveMode::Multiset:
          inbox = multiset_of(inbox_vec);
          break;
        case ReceiveMode::Set:
          inbox = set_of(inbox_vec);
          break;
      }
      next[u] = m.transition(state[u], inbox, d);
    }
    state.swap(next);
    if (options.record_trace) result.trace.push_back(state);
  }

  result.stopped = true;
  result.rounds = t;
  result.final_states = std::move(state);
  WM_COUNT_ADD(engine.rounds, t);
  WM_COUNT_ADD(engine.messages, result.stats.messages_sent);
  return result;
}

}  // namespace wm
