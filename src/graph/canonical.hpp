// Canonical forms for graphs, port-numbered graphs and Kripke models —
// nauty-style individualisation–refinement with automorphism (orbit)
// pruning.
//
// Colour-refinement fingerprints are sound but incomplete: highly
// symmetric isomorphic structures can fingerprint apart. This module
// computes a *complete* isomorphism key: two structures have equal
// certificates if and ONLY if they are isomorphic. That turns dedup tables into exact
// iso-free generation (enumerate_graphs_modulo_iso, the quotient search)
// and replaces the exponential backtracking isomorphism test beyond the
// exhaustive cutoff.
//
// Everything reduces to one carrier, RelationalStructure: n vertices with
// an initial colouring plus a list of binary relations. Graph maps to a
// single symmetric relation; a port numbering to the Delta^2 relations
// R_(i,j) = {(u,v) : p((u,i)) = (v,j)}; a Kripke model to one relation per
// modality with valuation profiles as initial colours (the same relational
// signature the bisimulation layer works over). The engine is defined
// here; the PortNumbering / KripkeModel reductions live with their types
// (wm_port / wm_logic) so the library dependency graph stays acyclic.
//
// Algorithm (see DESIGN.md "Canonical forms"): refine the colouring to a
// stable partition with *canonical* colour ids (classes numbered by sorted
// signature content, never by vertex index); if the partition is discrete
// it IS a labelling, emit the certificate; otherwise pick the first
// smallest non-singleton class (the target cell), individualise each
// member in turn and recurse. The certificate is the lexicographic
// minimum over all leaves. Leaves that tie with the current best yield
// automorphisms (compose the two labellings); branches whose root is in
// the orbit of an already-explored branch under automorphisms fixing the
// individualisation path are pruned.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wm {

class Graph;
class PortNumbering;
class KripkeModel;

/// The common reduction target: vertices 0..n-1, an initial colouring
/// (ids MUST be contiguous 0..k-1 and assigned canonically — i.e. by
/// sorted colour-class *content*, never by first-seen vertex order), and
/// directed binary relations. `header` tags the reduction kind and the
/// meaning of the colour ids (e.g. the valuation profiles of a Kripke
/// model) and is prepended to the certificate, so structures of different
/// kinds or signatures never compare equal.
struct RelationalStructure {
  int n = 0;
  std::string header;
  std::vector<int> colour;
  /// out[r][v] = targets of v under relation r; in[r][v] = sources.
  /// Both sides are kept so refinement sees in- and out-degrees.
  std::vector<std::vector<std::vector<int>>> out;
  std::vector<std::vector<std::vector<int>>> in;

  /// Appends an empty relation and returns its index.
  std::size_t add_relation();
  void add_edge(std::size_t r, int from, int to);
};

struct CanonicalForm {
  /// labelling[old] = canonical position; always a permutation of 0..n-1
  /// (the final colouring is discrete).
  std::vector<int> labelling;
  /// Complete isomorphism key: byte-identical across all relabellings of
  /// the structure, distinct for non-isomorphic structures (of the same
  /// reduction kind).
  std::string certificate;
  /// Automorphism generators discovered by the search (old -> old vertex
  /// maps, identity excluded). A subgroup witness, not necessarily the
  /// full group; every entry is a verified automorphism.
  std::vector<std::vector<int>> automorphisms;
};

/// Stable colour refinement with canonical class ids: iterates
/// (own colour, per-relation sorted successor/predecessor colour
/// multisets) until stable, renumbering classes each round by sorted
/// signature order. The returned ids are invariant under vertex
/// relabelling (as numbers, not merely as a partition).
std::vector<int> refine_colours(const RelationalStructure& s,
                                std::vector<int> colour);

/// Individualisation–refinement canonical labelling of `s`.
CanonicalForm canonical_form(const RelationalStructure& s);

/// FNV-1a of a certificate — the canonical_hash of every reduction kind.
std::uint64_t certificate_hash(const std::string& certificate);

// --- Plain graphs (defined in wm_graph) -------------------------------------

RelationalStructure structure_of(const Graph& g);
CanonicalForm canonical_form(const Graph& g);
std::string canonical_certificate(const Graph& g);
std::uint64_t canonical_hash(const Graph& g);
/// Exact isomorphism via certificate equality — complete at any size, no
/// backtracking. find_isomorphism (graph/isomorphism.hpp) routes here
/// beyond its exhaustive cutoff.
bool is_isomorphic(const Graph& g, const Graph& h);

// --- Port-numbered graphs (defined in wm_port) ------------------------------

/// Isomorphism notion: a node bijection preserving adjacency AND both
/// port families (out_v, in_v) — i.e. the relations R_(i,j).
RelationalStructure structure_of(const PortNumbering& p);
CanonicalForm canonical_form(const PortNumbering& p);
std::string canonical_certificate(const PortNumbering& p);
std::uint64_t canonical_hash(const PortNumbering& p);
bool is_isomorphic(const PortNumbering& p, const PortNumbering& q);

// --- Kripke models (defined in wm_logic) ------------------------------------

/// Isomorphism notion: a state bijection preserving every modality's
/// relation and the valuation of every proposition (registered-but-empty
/// relations count, matching the bisimulation layer's treatment).
RelationalStructure structure_of(const KripkeModel& k);
CanonicalForm canonical_form(const KripkeModel& k);
std::string canonical_certificate(const KripkeModel& k);
std::uint64_t canonical_hash(const KripkeModel& k);
bool is_isomorphic(const KripkeModel& a, const KripkeModel& b);

}  // namespace wm
