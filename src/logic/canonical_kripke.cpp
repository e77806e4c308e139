// Canonical forms of multimodal Kripke models — the KripkeModel reduction
// of graph/canonical.hpp, kept in wm_logic so wm_graph stays dependency-free.
//
// States reduce to vertices, each registered modality to one relation
// (sorted by Modality's ordering, so isomorphic models line their
// relations up), and the valuation to the initial colouring: profile ids
// are assigned in sorted-profile order (canonical), and the header lists
// the modalities, the proposition count and the profile table, so models
// of different signatures never share a certificate. Parallel edges (the
// graded quotients' multiplicity edges) are preserved as multiset entries
// in both the refinement signatures and the certificate.
#include <map>
#include <span>
#include <string>
#include <vector>

#include "graph/canonical.hpp"
#include "logic/kripke.hpp"

namespace wm {

RelationalStructure structure_of(const KripkeModel& k) {
  const int n = k.num_states();
  RelationalStructure s;
  s.n = n;
  s.header = "K;P" + std::to_string(k.num_props()) + ";M";
  const std::vector<Modality>& mods = k.modalities();  // sorted
  for (const Modality& alpha : mods) {
    s.header += alpha.to_string();
    s.header += ',';
  }
  s.header += ';';
  // Valuation profiles -> canonical colour ids, assigned in sorted
  // profile order; the profile table goes into the header.
  std::map<std::vector<bool>, int> profiles;
  std::vector<std::vector<bool>> profile_of(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    std::vector<bool> profile;
    for (int q = 1; q <= k.num_props(); ++q) {
      profile.push_back(k.prop_holds(q, v));
    }
    profiles.emplace(profile, 0);
    profile_of[v] = std::move(profile);
  }
  int next_id = 0;
  for (auto& [profile, id] : profiles) {
    id = next_id++;
    s.header += 'v';
    for (bool b : profile) s.header += b ? '1' : '0';
  }
  s.header += ';';
  s.colour.resize(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    s.colour[v] = profiles.find(profile_of[v])->second;
  }
  // Relation r is the modality with dense id r. Reading the store state
  // by state fills every row in the order a relation-by-relation pass
  // would: targets sorted, sources ascending.
  for (std::size_t r = 0; r < mods.size(); ++r) s.add_relation();
  for (int v = 0; v < n; ++v) {
    const std::span<const int> ids = k.out_modalities(v);
    const std::span<const int> targets = k.out_targets(v);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      s.add_edge(static_cast<std::size_t>(ids[i]), v, targets[i]);
    }
  }
  return s;
}

CanonicalForm canonical_form(const KripkeModel& k, const CancelToken* cancel) {
  return canonical_form(structure_of(k), cancel);
}

std::string canonical_certificate(const KripkeModel& k) {
  return canonical_form(k).certificate;
}

std::uint64_t canonical_hash(const KripkeModel& k) {
  return certificate_hash(canonical_certificate(k));
}

bool is_isomorphic(const KripkeModel& a, const KripkeModel& b) {
  if (a.num_states() != b.num_states() || a.num_props() != b.num_props()) {
    return false;
  }
  return canonical_certificate(a) == canonical_certificate(b);
}

}  // namespace wm
