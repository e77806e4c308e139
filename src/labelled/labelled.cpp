#include "labelled/labelled.hpp"

#include <stdexcept>

namespace wm {

namespace {

/// Adapter presenting a LabelledStateMachine as a StateMachine once the
/// initial states have been fixed externally.
class FixedInitAdapter final : public StateMachine {
 public:
  explicit FixedInitAdapter(const LabelledStateMachine& m) : m_(m) {}

  AlgebraicClass algebraic_class() const override { return m_.algebraic_class(); }
  Value init(int) const override {
    throw std::logic_error("FixedInitAdapter: init must not be called");
  }
  bool is_stopping(const Value& state) const override {
    return m_.is_stopping(state);
  }
  Value message(const Value& state, int port) const override {
    return m_.message(state, port);
  }
  Value transition(const Value& state, const Value& inbox,
                   int degree) const override {
    return m_.transition(state, inbox, degree);
  }

 private:
  const LabelledStateMachine& m_;
};

class IgnoreLabels final : public LabelledStateMachine {
 public:
  explicit IgnoreLabels(std::shared_ptr<const StateMachine> m)
      : m_(std::move(m)) {}
  AlgebraicClass algebraic_class() const override { return m_->algebraic_class(); }
  Value init(int degree, const Value&) const override { return m_->init(degree); }
  bool is_stopping(const Value& state) const override {
    return m_->is_stopping(state);
  }
  Value message(const Value& state, int port) const override {
    return m_->message(state, port);
  }
  Value transition(const Value& state, const Value& inbox,
                   int degree) const override {
    return m_->transition(state, inbox, degree);
  }

 private:
  std::shared_ptr<const StateMachine> m_;
};

}  // namespace

ExecutionResult execute_labelled(const LabelledStateMachine& m,
                                 const PortNumbering& p,
                                 const std::vector<Value>& inputs,
                                 const ExecutionOptions& options) {
  const Graph& g = p.graph();
  if (inputs.size() != static_cast<std::size_t>(g.num_nodes())) {
    throw std::invalid_argument("execute_labelled: wrong input count");
  }
  std::vector<Value> initial(inputs.size());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    initial[v] = m.init(g.degree(v), inputs[v]);
  }
  const FixedInitAdapter adapter(m);
  return execute_with_states(adapter, p, std::move(initial), options);
}

std::shared_ptr<const LabelledStateMachine> ignore_labels(
    std::shared_ptr<const StateMachine> m) {
  return std::make_shared<IgnoreLabels>(std::move(m));
}

KripkeModel kripke_from_labelled_graph(const PortNumbering& p, Variant variant,
                                       const std::vector<int>& labels,
                                       int num_labels, int delta) {
  const Graph& g = p.graph();
  if (labels.size() != static_cast<std::size_t>(g.num_nodes())) {
    throw std::invalid_argument("kripke_from_labelled_graph: label count");
  }
  if (delta < 0) delta = g.max_degree();
  const KripkeModel base = kripke_from_graph(p, variant, delta);
  KripkeModel out = KripkeModel::from_edges(
      base.num_states(), delta + num_labels, base.edges(), base.modalities());
  for (int q = 1; q <= base.num_props(); ++q) {
    for (int v = 0; v < base.num_states(); ++v) {
      if (base.prop_holds(q, v)) out.set_prop(q, v);
    }
  }
  for (int v = 0; v < g.num_nodes(); ++v) {
    if (labels[v] < 0 || labels[v] >= num_labels) {
      throw std::invalid_argument("kripke_from_labelled_graph: label range");
    }
    out.set_prop(delta + 1 + labels[v], v);
  }
  return out;
}

}  // namespace wm
