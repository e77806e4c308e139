#include "problems/catalogue.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "graph/exact.hpp"
#include "graph/matching.hpp"
#include "graph/properties.hpp"
#include "logic/model_checker.hpp"
#include "port/port_numbering.hpp"
#include "util/visitor.hpp"

namespace wm {

std::size_t for_each_output(const Problem& p, const Graph& g,
                            const std::function<bool(const std::vector<int>&)>& fn) {
  const std::vector<int> alphabet = p.output_alphabet();
  const int n = g.num_nodes();
  std::vector<int> out(static_cast<std::size_t>(n), alphabet[0]);
  std::vector<std::size_t> idx(static_cast<std::size_t>(n), 0);
  std::size_t count = 0;
  for (;;) {
    ++count;
    if (!fn(out)) return count;
    // Odometer increment.
    int pos = 0;
    while (pos < n) {
      if (++idx[pos] < alphabet.size()) {
        out[pos] = alphabet[idx[pos]];
        break;
      }
      idx[pos] = 0;
      out[pos] = alphabet[0];
      ++pos;
    }
    if (pos == n) return count;
  }
}

namespace {

/// |Y|^n — the size of the output space for_each_output scans — or
/// nullopt if it does not fit in 64 bits (then no exhaustive scan is
/// feasible anyway). Output index i is the i-th output for_each_output
/// streams.
std::optional<std::uint64_t> output_space_size(const Problem& p,
                                               const Graph& g) {
  const std::uint64_t y = p.output_alphabet().size();
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t acc = 1;
  for (int v = 0; v < g.num_nodes(); ++v) {
    if (y != 0 && acc > kMax / y) return std::nullopt;
    acc *= y;
  }
  return acc;
}

std::vector<int> output_for_index(const Problem& p, const Graph& g,
                                  std::uint64_t idx) {
  const std::vector<int> alphabet = p.output_alphabet();
  const std::uint64_t y = alphabet.size();
  std::vector<int> out(static_cast<std::size_t>(g.num_nodes()));
  for (int v = 0; v < g.num_nodes(); ++v) {
    out[v] = alphabet[static_cast<std::size_t>(idx % y)];
    idx /= y;
  }
  return out;
}

}  // namespace

bool every_solution_splits(const Problem& p, const Graph& g,
                           const std::vector<NodeId>& x) {
  auto unsplit = [&](const std::vector<int>& out) {
    if (!p.valid(g, out)) return false;
    for (std::size_t i = 1; i < x.size(); ++i) {
      if (out[x[i]] != out[x[0]]) return false;
    }
    return true;  // valid yet constant on X: a counterexample
  };
  if (const auto space = output_space_size(p, g)) {
    // Inline find_first: its speculative scope keeps the verifier's work
    // counters out of the gated totals.
    return !ParallelVisitor(nullptr)
                .find_first(0, *space,
                            [&](std::uint64_t i) {
                              return unsplit(output_for_index(p, g, i));
                            })
                .has_value();
  }
  // Space too large for indexed scanning — fall through; the odometer
  // below would never finish either, but keeps the semantics defined.
  bool ok = true;
  for_each_output(p, g, [&](const std::vector<int>& out) {
    if (!unsplit(out)) return true;
    ok = false;
    return false;
  });
  return ok;
}

namespace {

/// Is g a k-star with k > 1? Returns k, or 0.
int star_order(const Graph& g) {
  const int n = g.num_nodes();
  if (n < 3 || g.num_edges() != n - 1) return 0;
  int centre = -1;
  for (int v = 0; v < n; ++v) {
    if (g.degree(v) == n - 1) centre = v;
    else if (g.degree(v) != 1) return 0;
  }
  return centre >= 0 ? n - 1 : 0;
}

class LeafInStar final : public Problem {
 public:
  std::string name() const override { return "leaf-in-star"; }
  bool valid(const Graph& g, const std::vector<int>& out) const override {
    const int k = star_order(g);
    if (k == 0) return true;  // unconstrained off the star family
    int ones = 0;
    for (int v = 0; v < g.num_nodes(); ++v) {
      if (out[v] != 0 && out[v] != 1) return false;
      if (out[v] == 1) {
        if (g.degree(v) != 1) return false;  // centre must output 0
        ++ones;
      }
    }
    return ones == 1;
  }
};

class OddOdd final : public Problem {
 public:
  std::string name() const override { return "odd-odd-neighbours"; }
  bool valid(const Graph& g, const std::vector<int>& out) const override {
    for (int v = 0; v < g.num_nodes(); ++v) {
      int odd_nbrs = 0;
      for (NodeId u : g.neighbours(v)) {
        if (g.degree(u) % 2 == 1) ++odd_nbrs;
      }
      const int expected = odd_nbrs % 2;
      if (out[v] != expected) return false;
    }
    return true;
  }
};

class SymmetryBreak final : public Problem {
 public:
  std::string name() const override { return "symmetry-break-in-G"; }
  bool valid(const Graph& g, const std::vector<int>& out) const override {
    for (int v = 0; v < g.num_nodes(); ++v) {
      if (out[v] != 0 && out[v] != 1) return false;
    }
    // Class-G membership costs a blossom run; cache it, since solution
    // enumeration calls valid() with the same graph 2^n times. valid()
    // must stay callable from concurrent witness searches, hence the lock.
    bool in_g;
    {
      std::lock_guard<std::mutex> lock(cache_mu_);
      if (!cached_ || !(cached_graph_ == g)) {
        cached_graph_ = g;
        cached_in_g_ = in_class_g(g);
        cached_ = true;
      }
      in_g = cached_in_g_;
    }
    if (!in_g) return true;
    return std::adjacent_find(out.begin(), out.end(),
                              std::not_equal_to<>()) != out.end();
  }

 private:
  mutable std::mutex cache_mu_;
  mutable bool cached_ = false;
  mutable Graph cached_graph_;
  mutable bool cached_in_g_ = false;
};

class Mis final : public Problem {
 public:
  std::string name() const override { return "maximal-independent-set"; }
  bool valid(const Graph& g, const std::vector<int>& out) const override {
    return is_maximal_independent_set(g, out);
  }
};

class ThreeColouring final : public Problem {
 public:
  std::string name() const override { return "vertex-3-colouring"; }
  std::vector<int> output_alphabet() const override { return {1, 2, 3}; }
  bool valid(const Graph& g, const std::vector<int>& out) const override {
    return is_proper_colouring(g, out, 3);
  }
};

class EulerianDecision final : public Problem {
 public:
  std::string name() const override { return "eulerian-decision"; }
  bool valid(const Graph& g, const std::vector<int>& out) const override {
    if (is_eulerian(g)) {
      // Yes-instance: every node must accept.
      return std::all_of(out.begin(), out.end(), [](int b) { return b == 1; });
    }
    // No-instance: at least one node must reject.
    return std::any_of(out.begin(), out.end(), [](int b) { return b == 0; });
  }
};

class ApproxVertexCover final : public Problem {
 public:
  ApproxVertexCover(int num, int den) : num_(num), den_(den) {}
  std::string name() const override { return "approx-vertex-cover"; }
  bool valid(const Graph& g, const std::vector<int>& out) const override {
    if (!is_vertex_cover(g, out)) return false;
    const int size = static_cast<int>(std::count(out.begin(), out.end(), 1));
    const int opt = minimum_vertex_cover_size(g);
    return static_cast<long long>(size) * den_ <=
           static_cast<long long>(opt) * num_;
  }

 private:
  int num_, den_;
};

class IsolatedNode final : public Problem {
 public:
  std::string name() const override { return "isolated-node-detection"; }
  bool valid(const Graph& g, const std::vector<int>& out) const override {
    for (int v = 0; v < g.num_nodes(); ++v) {
      if (out[v] != (g.degree(v) == 0 ? 1 : 0)) return false;
    }
    return true;
  }
};

class FormulaProblem final : public Problem {
 public:
  FormulaProblem(Formula psi, int delta) : psi_(std::move(psi)), delta_(delta) {
    if (!psi_.in_signature(Variant::MinusMinus, delta_)) {
      throw std::invalid_argument(
          "formula_problem: formula must be in the K_{-,-} signature");
    }
  }
  std::string name() const override {
    return "formula-problem[" + psi_.to_string() + "]";
  }
  bool valid(const Graph& g, const std::vector<int>& out) const override {
    if (g.max_degree() > delta_) {
      throw std::invalid_argument("formula_problem: graph exceeds Delta");
    }
    // K_{-,-} does not depend on the numbering: any one will do.
    const KripkeModel k =
        kripke_from_graph(PortNumbering::identity(g), Variant::MinusMinus,
                          delta_);
    const auto truth = model_check(k, psi_);
    for (int v = 0; v < g.num_nodes(); ++v) {
      if (out[v] != (truth[v] ? 1 : 0)) return false;
    }
    return true;
  }

 private:
  Formula psi_;
  int delta_;
};

class DegreeParity final : public Problem {
 public:
  std::string name() const override { return "degree-parity"; }
  bool valid(const Graph& g, const std::vector<int>& out) const override {
    for (int v = 0; v < g.num_nodes(); ++v) {
      if (out[v] != g.degree(v) % 2) return false;
    }
    return true;
  }
};

}  // namespace

bool in_class_g(const Graph& g) {
  const int k = g.max_degree();
  if (k < 3 || k % 2 == 0 || !g.is_regular(k)) return false;
  if (!is_connected(g)) return false;
  return !has_one_factor(g);
}

ProblemPtr leaf_in_star_problem() { return std::make_shared<LeafInStar>(); }
ProblemPtr odd_odd_problem() { return std::make_shared<OddOdd>(); }
ProblemPtr symmetry_break_problem() { return std::make_shared<SymmetryBreak>(); }
ProblemPtr maximal_independent_set_problem() { return std::make_shared<Mis>(); }
ProblemPtr three_colouring_problem() { return std::make_shared<ThreeColouring>(); }
ProblemPtr eulerian_decision_problem() {
  return std::make_shared<EulerianDecision>();
}
ProblemPtr approx_vertex_cover_problem(int num, int den) {
  return std::make_shared<ApproxVertexCover>(num, den);
}
ProblemPtr isolated_node_problem() { return std::make_shared<IsolatedNode>(); }
ProblemPtr degree_parity_problem() { return std::make_shared<DegreeParity>(); }
ProblemPtr formula_problem(const Formula& psi, int delta) {
  return std::make_shared<FormulaProblem>(psi, delta);
}

}  // namespace wm
