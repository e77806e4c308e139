#include "graph/canonical.hpp"

#include <algorithm>
#include <charconv>
#include <numeric>
#include <utility>

#include "graph/graph.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "util/cancel.hpp"

namespace wm {

std::size_t RelationalStructure::add_relation() {
  out.emplace_back(static_cast<std::size_t>(n));
  in.emplace_back(static_cast<std::size_t>(n));
  return out.size() - 1;
}

void RelationalStructure::add_edge(std::size_t r, int from, int to) {
  out[r][from].push_back(to);
  in[r][to].push_back(from);
}

namespace {

/// Colour refinement over one flat int arena, built once per structure.
/// Vertex v's signature occupies arena_[off_[v], off_[v+1]): its own
/// colour, then per relation -2, its successors' colours, -3, its
/// predecessors' colours. src_ holds what fills each slot — a vertex id
/// whose current colour is copied in, or a separator stored as itself —
/// and runs_ lists the neighbour runs longer than one, the only parts a
/// round has to sort. Comparing two slices lexicographically is exactly
/// comparing the signature vectors the ranks are defined by.
class Refiner {
 public:
  explicit Refiner(const RelationalStructure& s) : n_(s.n) {
    const auto N = static_cast<std::size_t>(n_);
    off_.assign(N + 1, 0);
    run_off_.assign(N + 1, 0);
    std::size_t slots = N, runs = 0;
    for (std::size_t r = 0; r < s.out.size(); ++r) {
      for (int v = 0; v < n_; ++v) {
        slots += 2 + s.out[r][v].size() + s.in[r][v].size();
        runs += (s.out[r][v].size() > 1) + (s.in[r][v].size() > 1);
      }
    }
    src_.reserve(slots);
    runs_.reserve(2 * runs);
    for (int v = 0; v < n_; ++v) {
      src_.push_back(v);
      for (std::size_t r = 0; r < s.out.size(); ++r) {
        append_run(-2, s.out[r][v]);
        append_run(-3, s.in[r][v]);
      }
      off_[v + 1] = static_cast<int>(src_.size());
      run_off_[v + 1] = static_cast<int>(runs_.size());
    }
    arena_.resize(src_.size());
    order_.resize(N);
    next_.resize(N);
  }

  /// Refines `colour` (one id per vertex, any ints) in place to the
  /// stable colouring with canonical ids; returns the rounds run. Each
  /// round ranks the distinct signatures in sorted order. Every
  /// signature starts with the old colour, so that order is: classes by
  /// old colour, then by the rest of the signature within a class —
  /// which is what bucketing vertices by old colour and sorting only
  /// inside non-singleton classes computes. `cancel` is polled once per
  /// round.
  std::uint64_t refine(std::vector<int>& colour,
                       const CancelToken* cancel = nullptr) {
    if (n_ == 0) return 0;
    std::uint64_t rounds = 0;
    bucket_by_colour(colour);
    // One extra round normalises possibly non-contiguous input ids (the
    // individualisation step doubles them); after it, order_ is already
    // sorted by colour.
    for (int round = 0; round <= n_ + 1; ++round) {
      poll_cancel(cancel);
      ++rounds;
      int next_id = 0;
      for (int b = 0; b < n_;) {
        int e = b + 1;
        while (e < n_ && colour[order_[e]] == colour[order_[b]]) ++e;
        if (e - b > 1) {
          for (int i = b; i < e; ++i) fill(order_[i], colour);
          std::sort(order_.begin() + b, order_.begin() + e,
                    [this](int u, int w) { return less(u, w); });
          for (int i = b; i < e; ++i) {
            if (i > b && !same(order_[i - 1], order_[i])) ++next_id;
            next_[order_[i]] = next_id;
          }
        } else {
          next_[order_[b]] = next_id;
        }
        ++next_id;
        b = e;
      }
      if (next_ == colour) break;
      colour.swap(next_);
    }
    return rounds;
  }

 private:
  void append_run(int separator, const std::vector<int>& nbs) {
    src_.push_back(separator);
    const int b = static_cast<int>(src_.size());
    src_.insert(src_.end(), nbs.begin(), nbs.end());
    if (nbs.size() > 1) {
      runs_.push_back(b);
      runs_.push_back(static_cast<int>(src_.size()));
    }
  }

  /// Orders order_ by colour: a counting sort when the ids span O(n)
  /// values (always, inside the search: ids lie in [-1, 2n)), else a
  /// comparison sort.
  void bucket_by_colour(const std::vector<int>& colour) {
    const auto [lo, hi] = std::minmax_element(colour.begin(), colour.end());
    const long long span = static_cast<long long>(*hi) - *lo + 1;
    if (span > 4LL * n_ + 4) {
      std::iota(order_.begin(), order_.end(), 0);
      std::sort(order_.begin(), order_.end(),
                [&](int u, int w) { return colour[u] < colour[w]; });
      return;
    }
    const int base = *lo;
    count_.assign(static_cast<std::size_t>(span) + 1, 0);
    for (int c : colour) ++count_[c - base + 1];
    std::partial_sum(count_.begin(), count_.end(), count_.begin());
    for (int v = 0; v < n_; ++v) order_[count_[colour[v] - base]++] = v;
  }

  void fill(int v, const std::vector<int>& colour) {
    for (int i = off_[v]; i < off_[v + 1]; ++i) {
      const int x = src_[i];
      arena_[i] = x >= 0 ? colour[x] : x;
    }
    for (int k = run_off_[v]; k < run_off_[v + 1]; k += 2) {
      std::sort(arena_.begin() + runs_[k], arena_.begin() + runs_[k + 1]);
    }
  }

  bool less(int u, int w) const {
    return std::lexicographical_compare(
        arena_.begin() + off_[u], arena_.begin() + off_[u + 1],
        arena_.begin() + off_[w], arena_.begin() + off_[w + 1]);
  }

  bool same(int u, int w) const {
    return off_[u + 1] - off_[u] == off_[w + 1] - off_[w] &&
           std::equal(arena_.begin() + off_[u], arena_.begin() + off_[u + 1],
                      arena_.begin() + off_[w]);
  }

  int n_;
  std::vector<int> off_, src_, run_off_, runs_;
  std::vector<int> arena_, order_, next_, count_;
};

}  // namespace

std::vector<int> refine_colours(const RelationalStructure& s,
                                std::vector<int> colour) {
  const std::uint64_t rounds = Refiner(s).refine(colour);
  if (rounds != 0) WM_COUNT_ADD(canonical.refine_rounds, rounds);
  return colour;
}

namespace {

void append_int(std::string& out, int x) {
  char buf[16];
  const auto res = std::to_chars(buf, buf + sizeof buf, x);
  out.append(buf, res.ptr);
}

struct CanonSearch {
  /// Per-depth scratch, reused by every node at that depth.
  struct Level {
    std::vector<int> colour;  // the node's refined colouring
    std::vector<int> tried;   // children explored so far
    std::vector<int> orbit;   // union-find: orbits of the generators fixing path
    std::size_t folded = 0;   // generators already considered for `orbit`
  };

  const RelationalStructure& s;
  const CancelToken* cancel;
  Refiner refiner;
  CanonicalForm best;
  bool have_best = false;
  std::vector<int> best_inv;   // best.labelling inverted
  std::vector<int> best_path;  // the path that reached best.labelling
  std::vector<int> path;       // individualised vertices, root to current
  /// Depth to unwind to after a leaf tied the best one; kNoJump if none.
  static constexpr std::size_t kNoJump = static_cast<std::size_t>(-1);
  std::size_t jump = kNoJump;
  std::vector<Level> level;
  std::string cert;           // the current leaf's certificate
  std::vector<int> inv, row, aut, cell_size;
  std::size_t cert_reserve = 0;  // capacity that fits every certificate
  std::uint64_t rounds = 0, leaves = 0, orbit_prunes = 0;

  CanonSearch(const RelationalStructure& structure, const CancelToken* token)
      : s(structure),
        cancel(token),
        refiner(structure),
        level(static_cast<std::size_t>(structure.n) + 1) {
    // A printed int takes at most 11 chars; an edge prints two.
    std::size_t edges = 0;
    for (const auto& rel : s.out) {
      for (const auto& targets : rel) edges += targets.size();
    }
    cert_reserve = s.header.size() + 16 + 12 * static_cast<std::size_t>(s.n) +
                   16 * s.out.size() + 24 * edges;
  }

  /// Serialises the structure under a discrete colouring (= labelling)
  /// into `out`. Initial colours come first — two certificates are equal
  /// iff the relabelled structures coincide, valuation content included.
  /// Edges are written row by row in canonical position, each row's
  /// targets sorted: the lexicographic order of the (source, target)
  /// pairs.
  void certify(const std::vector<int>& lab, std::string& out) {
    const int n = s.n;
    inv.resize(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) inv[lab[v]] = v;
    out.reserve(cert_reserve);
    out.assign(s.header);
    out += 'n';
    append_int(out, n);
    out += ";c:";
    for (int i = 0; i < n; ++i) {
      append_int(out, s.colour[inv[i]]);
      out += ',';
    }
    for (std::size_t r = 0; r < s.out.size(); ++r) {
      out += "|r";
      append_int(out, static_cast<int>(r));
      out += ':';
      for (int i = 0; i < n; ++i) {
        row.clear();
        for (int w : s.out[r][inv[i]]) row.push_back(lab[w]);
        std::sort(row.begin(), row.end());
        for (int b : row) {
          append_int(out, i);
          out += '>';
          append_int(out, b);
          out += ',';
        }
      }
    }
  }

  void leaf(const std::vector<int>& lab) {
    ++leaves;
    certify(lab, cert);
    if (!have_best || cert < best.certificate) {
      best.certificate.swap(cert);
      best.labelling = lab;
      best_inv.resize(lab.size());
      for (std::size_t v = 0; v < lab.size(); ++v) best_inv[lab[v]] = static_cast<int>(v);
      best_path = path;
      have_best = true;
      return;
    }
    if (cert != best.certificate) return;
    // Two labellings with identical images compose to an automorphism:
    // a = best_lab^{-1} ∘ lab. It maps this leaf's path onto the best
    // leaf's, so it fixes their common prefix and carries the rest of
    // this branch onto the already-explored branch of the best leaf:
    // unwind to the common ancestor (McKay's rule).
    jump = static_cast<std::size_t>(
        std::mismatch(path.begin(), path.end(), best_path.begin(), best_path.end())
            .first -
        path.begin());
    const int n = s.n;
    aut.resize(static_cast<std::size_t>(n));
    bool identity = true;
    for (int v = 0; v < n; ++v) {
      aut[v] = best_inv[lab[v]];
      if (aut[v] != v) identity = false;
    }
    if (!identity &&
        std::find(best.automorphisms.begin(), best.automorphisms.end(), aut) ==
            best.automorphisms.end()) {
      best.automorphisms.push_back(aut);
    }
  }

  /// True if v lies in the orbit of an already-explored branch root under
  /// the discovered automorphisms that fix the current path pointwise —
  /// such a subtree reproduces an explored subtree's certificates exactly.
  /// The node's orbit forest folds in each generator once.
  bool pruned(Level& node, int v) {
    std::vector<int>& parent = node.orbit;
    auto find = [&](int x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (; node.folded < best.automorphisms.size(); ++node.folded) {
      const std::vector<int>& a = best.automorphisms[node.folded];
      bool fixes_path = true;
      for (int p : path) {
        if (a[p] != p) {
          fixes_path = false;
          break;
        }
      }
      if (!fixes_path) continue;
      for (int u = 0; u < s.n; ++u) {
        const int ru = find(u), rv = find(a[u]);
        if (ru != rv) parent[ru] = rv;
      }
    }
    const int rv = find(v);
    for (int u : node.tried) {
      if (find(u) == rv) {
        ++orbit_prunes;
        return true;
      }
    }
    return false;
  }

  void run(std::size_t depth) {
    const int n = s.n;
    Level& node = level[depth];
    const std::vector<int>& colour = node.colour;
    const int num_colours = *std::max_element(colour.begin(), colour.end()) + 1;
    if (num_colours == n) {
      leaf(colour);
      return;
    }
    // Target cell: the smallest non-singleton class, lowest colour id on
    // ties — both invariants, so every relabelling branches on the same
    // cell.
    cell_size.assign(static_cast<std::size_t>(num_colours), 0);
    for (int v = 0; v < n; ++v) ++cell_size[colour[v]];
    int target = -1;
    for (int c = 0; c < num_colours; ++c) {
      if (cell_size[c] < 2) continue;
      if (target == -1 || cell_size[c] < cell_size[target]) target = c;
    }
    node.tried.clear();
    node.orbit.resize(static_cast<std::size_t>(n));
    std::iota(node.orbit.begin(), node.orbit.end(), 0);
    node.folded = 0;
    Level& child = level[depth + 1];
    for (int v = 0; v < n; ++v) {
      if (colour[v] != target) continue;
      if (!node.tried.empty() && pruned(node, v)) continue;
      node.tried.push_back(v);
      // Individualise v: a fresh colour sorted immediately before its
      // class (2c-1 between 2(c-1) and 2c), preserving canonical order.
      child.colour.resize(static_cast<std::size_t>(n));
      for (int u = 0; u < n; ++u) child.colour[u] = 2 * colour[u];
      child.colour[v] -= 1;
      rounds += refiner.refine(child.colour, cancel);
      path.push_back(v);
      run(depth + 1);
      path.pop_back();
      if (jump < depth) return;
      jump = kNoJump;
    }
  }
};

}  // namespace

std::uint64_t certificate_hash(const std::string& certificate) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : certificate) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

CanonicalForm canonical_form(const RelationalStructure& s,
                             const CancelToken* cancel) {
  WM_SCOPE("canonical.form");
  WM_COUNT(canonical.forms);
  CanonSearch search(s, cancel);
  if (s.n == 0) {
    search.certify({}, search.best.certificate);
    return std::move(search.best);
  }
  search.level[0].colour = s.colour;
  poll_cancel(cancel);
  search.rounds += search.refiner.refine(search.level[0].colour, cancel);
  search.run(0);
  // Work counts are added once per form, and only when nonzero, so a
  // run that never prunes registers no orbit_prunes counter.
  if (search.rounds != 0) WM_COUNT_ADD(canonical.refine_rounds, search.rounds);
  if (search.leaves != 0) WM_COUNT_ADD(canonical.leaves, search.leaves);
  if (search.orbit_prunes != 0) {
    WM_COUNT_ADD(canonical.orbit_prunes, search.orbit_prunes);
  }
  return std::move(search.best);
}

// --- Plain graphs ------------------------------------------------------------

RelationalStructure structure_of(const Graph& g) {
  RelationalStructure s;
  s.n = g.num_nodes();
  s.header = "G;";
  s.colour.assign(static_cast<std::size_t>(s.n), 0);
  // One symmetric relation: a node's successors and predecessors are
  // both its neighbours.
  const std::size_t r = s.add_relation();
  for (NodeId v = 0; v < s.n; ++v) {
    s.out[r][v] = g.neighbours(v);
    s.in[r][v] = g.neighbours(v);
  }
  return s;
}

CanonicalForm canonical_form(const Graph& g, const CancelToken* cancel) {
  return canonical_form(structure_of(g), cancel);
}

std::string canonical_certificate(const Graph& g) {
  return canonical_form(g).certificate;
}

std::uint64_t canonical_hash(const Graph& g) {
  return certificate_hash(canonical_certificate(g));
}

bool is_isomorphic(const Graph& g, const Graph& h) {
  if (g.num_nodes() != h.num_nodes() || g.num_edges() != h.num_edges()) {
    return false;
  }
  return canonical_certificate(g) == canonical_certificate(h);
}

}  // namespace wm
