// Canonical forms of port-numbered graphs — the PortNumbering reduction
// of graph/canonical.hpp, kept in wm_port so wm_graph stays dependency-free.
//
// A port numbering on G reduces to the Delta^2 relations
// R_(i,j) = {(u,v) : p((u,i)) = (v,j)} over the nodes of G — exactly the
// accessibility relations of the K_{+,+} Kripke view (Section 4.3), minus
// the valuation. A node bijection preserving every R_(i,j) preserves
// adjacency and both per-node port families, so certificate equality is
// exactly port-numbered-graph isomorphism.
#include <string>

#include "graph/canonical.hpp"
#include "port/port_numbering.hpp"

namespace wm {

RelationalStructure structure_of(const PortNumbering& p) {
  const Graph& g = p.graph();
  const int n = g.num_nodes();
  const int delta = n == 0 ? 0 : g.max_degree();
  RelationalStructure s;
  s.n = n;
  s.header = "P;D" + std::to_string(delta) + ";";
  s.colour.assign(static_cast<std::size_t>(n), 0);
  // Relation (i, j) at index (i-1)*delta + (j-1).
  for (int r = 0; r < delta * delta; ++r) s.add_relation();
  for (NodeId v = 0; v < n; ++v) {
    for (int i = 1; i <= g.degree(v); ++i) {
      const PortRef target = p.forward({v, i});
      const std::size_t r = static_cast<std::size_t>(i - 1) *
                                static_cast<std::size_t>(delta) +
                            static_cast<std::size_t>(target.index - 1);
      s.add_edge(r, v, target.node);
    }
  }
  return s;
}

CanonicalForm canonical_form(const PortNumbering& p,
                             const CancelToken* cancel) {
  return canonical_form(structure_of(p), cancel);
}

std::string canonical_certificate(const PortNumbering& p) {
  return canonical_form(p).certificate;
}

std::uint64_t canonical_hash(const PortNumbering& p) {
  return certificate_hash(canonical_certificate(p));
}

bool is_isomorphic(const PortNumbering& p, const PortNumbering& q) {
  if (p.graph().num_nodes() != q.graph().num_nodes() ||
      p.graph().num_edges() != q.graph().num_edges()) {
    return false;
  }
  return canonical_certificate(p) == canonical_certificate(q);
}

}  // namespace wm
