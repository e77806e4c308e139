#include "bisim/bisimulation.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "util/bitset.hpp"
#include "util/hash_mix.hpp"

namespace wm {

std::vector<std::vector<int>> Partition::blocks() const {
  std::vector<std::vector<int>> out(static_cast<std::size_t>(num_blocks));
  for (int v = 0; v < static_cast<int>(block.size()); ++v) {
    out[block[v]].push_back(v);
  }
  return out;
}

Partition valuation_partition(const KripkeModel& k) {
  const int n = k.num_states();
  Partition p;
  p.block.assign(static_cast<std::size_t>(n), 0);
  if (n == 0) return p;
  if (k.num_props() <= 64) {
    // Pack each state's profile into one word, transposing the stored
    // per-prop rows with word-wise set-bit iteration.
    std::vector<std::uint64_t> profile(static_cast<std::size_t>(n), 0);
    for (int q = 1; q <= k.num_props(); ++q) {
      const std::uint64_t bit = std::uint64_t{1} << (q - 1);
      k.prop_bits(q).for_each_set(
          [&](std::size_t v) { profile[v] |= bit; });
    }
    std::unordered_map<std::uint64_t, int> dict;
    dict.reserve(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      auto [it, _] = dict.try_emplace(profile[v], static_cast<int>(dict.size()));
      p.block[v] = it->second;
    }
    p.num_blocks = static_cast<int>(dict.size());
  } else {
    std::map<std::vector<bool>, int> dict;
    for (int v = 0; v < n; ++v) {
      std::vector<bool> profile(static_cast<std::size_t>(k.num_props()));
      for (int q = 1; q <= k.num_props(); ++q) profile[q - 1] = k.prop_holds(q, v);
      auto [it, _] = dict.try_emplace(std::move(profile),
                                      static_cast<int>(dict.size()));
      p.block[v] = it->second;
    }
    p.num_blocks = static_cast<int>(dict.size());
  }
  return p;
}

namespace {

// --- Hopcroft-style worklist path -----------------------------------------
//
// Round-synchronous signature refinement — each round splits every block
// by its states' per-modality successor-block (multi)sets against the
// start-of-round partition — computed incrementally. Block ids
// are *stable*: when a block splits, the largest sub-block keeps the
// parent id and only the smaller halves get fresh ids. A state's
// signature (multiset of successor block ids) can therefore change
// between rounds only if some successor moved into a fresh block — so
// the next round needs to re-examine exactly the predecessors of the
// smaller halves (the dirty set, a Bitset), and states inside an
// untouched block provably cannot separate. Because every fresh block is
// at most half its parent, each state is a dirty-trigger O(log n) times:
// Hopcroft's bound for the propagation work. Rounds and the per-round
// partitions coincide exactly with a full signature pass per round (the
// scalar oracle in tests/support/oracles.hpp; the clean-state lemma in
// DESIGN.md §3), which is what keeps `bisim.refine_rounds` — and
// bounded-refinement semantics, i.e. modal depth — invariant, and what
// lets an observer see each round as the reference numbers it.

/// Flattened per-state signature: per modality, the sorted (multi)set of
/// start-of-round successor block ids, separated by -1.
struct SigHash {
  std::size_t operator()(const std::vector<int>& sig) const noexcept {
    std::uint64_t h = static_cast<std::uint64_t>(sig.size());
    for (const int x : sig) {
      h = hash_mix(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)));
    }
    return static_cast<std::size_t>(h);
  }
};

/// Compressed-sparse-row predecessor lists of one modality.
struct PredCsr {
  std::vector<int> offset;  // n + 1
  std::vector<int> data;

  static PredCsr build(const std::vector<std::vector<int>>& succ, int n) {
    PredCsr csr;
    csr.offset.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const auto& row : succ) {
      for (const int w : row) ++csr.offset[w + 1];
    }
    for (int v = 0; v < n; ++v) csr.offset[v + 1] += csr.offset[v];
    csr.data.resize(csr.offset[n]);
    std::vector<int> cursor(csr.offset.begin(), csr.offset.end() - 1);
    for (int v = 0; v < n; ++v) {
      for (const int w : succ[v]) csr.data[cursor[w]++] = v;
    }
    return csr;
  }
};

/// `block` renumbered by first member, as the reference numbers every
/// round (its full passes assign ids in state order). Blocks are never
/// empty, so every id is below the state count.
Partition numbered_by_first_member(const std::vector<int>& block, int rounds) {
  Partition p;
  p.block.resize(block.size());
  p.rounds = rounds;
  std::vector<int> renumber(block.size(), -1);
  for (std::size_t v = 0; v < block.size(); ++v) {
    int& id = renumber[block[v]];
    if (id < 0) id = p.num_blocks++;
    p.block[v] = id;
  }
  return p;
}

Partition refine_worklist(const KripkeModel& k, bool graded, int max_rounds,
                          const RoundObserver& observe) {
  const int n = k.num_states();
  const auto modalities = k.modalities();
  std::vector<const std::vector<std::vector<int>>*> succ;
  succ.reserve(modalities.size());
  for (const Modality& alpha : modalities) succ.push_back(k.relation(alpha));

  const Partition initial = valuation_partition(k);
  if (observe) observe(initial);
  // Mutable partition state: stable ids, membership lists per block.
  std::vector<int> block = initial.block;       // id at the current round
  std::vector<int> block_old = block;           // ids at the round start
  std::vector<std::vector<int>> members(
      static_cast<std::size_t>(initial.num_blocks));
  for (int v = 0; v < n; ++v) members[block[v]].push_back(v);

  std::vector<PredCsr> pred;
  pred.reserve(succ.size());
  for (const auto* s : succ) pred.push_back(PredCsr::build(*s, n));

  Bitset dirty(static_cast<std::size_t>(n));
  std::vector<int> touched;
  std::vector<int> sig;  // scratch, reused across states
  std::unordered_map<std::vector<int>, int, SigHash> groups;
  int rounds = 0;
  bool first = true;

  while (max_rounds < 0 || rounds < max_rounds) {
    touched.clear();
    if (first) {
      touched.resize(members.size());
      for (std::size_t b = 0; b < members.size(); ++b) {
        touched[b] = static_cast<int>(b);
      }
    } else {
      // Blocks holding a dirty state, in block-id order.
      std::vector<char> seen(members.size(), 0);
      dirty.for_each_set([&](std::size_t v) {
        const int b = block[v];
        if (!seen[b]) {
          seen[b] = 1;
          touched.push_back(b);
        }
      });
      std::sort(touched.begin(), touched.end());
    }
    if (touched.empty()) break;

    std::vector<int> fresh;  // blocks created this round
    for (const int b : touched) {
      const std::vector<int>& mem = members[b];
      if (mem.size() <= 1) continue;
      // Group members by signature against the start-of-round partition.
      groups.clear();
      std::vector<std::vector<int>> parts;  // group index -> members
      for (const int v : mem) {
        sig.clear();
        for (std::size_t a = 0; a < succ.size(); ++a) {
          const std::size_t start = sig.size();
          for (const int w : (*succ[a])[v]) sig.push_back(block_old[w]);
          std::sort(sig.begin() + start, sig.end());
          if (!graded) {
            sig.erase(std::unique(sig.begin() + start, sig.end()), sig.end());
          }
          sig.push_back(-1);  // modality separator
        }
        auto [it, inserted] = groups.try_emplace(sig,
                                                 static_cast<int>(parts.size()));
        if (inserted) parts.emplace_back();
        parts[it->second].push_back(v);
      }
      if (parts.size() <= 1) continue;
      // The largest part keeps the parent id (first-seen wins ties); the
      // smaller halves get fresh ids and become next round's splitters.
      std::size_t keep = 0;
      for (std::size_t g = 1; g < parts.size(); ++g) {
        if (parts[g].size() > parts[keep].size()) keep = g;
      }
      for (std::size_t g = 0; g < parts.size(); ++g) {
        if (g == keep) continue;
        const int fresh_id = static_cast<int>(members.size());
        for (const int v : parts[g]) block[v] = fresh_id;
        members.push_back(std::move(parts[g]));
        fresh.push_back(fresh_id);
      }
      members[b] = std::move(parts[keep]);
    }
    if (fresh.empty()) break;
    ++rounds;
    WM_COUNT_ADD(bisim.split_smaller, fresh.size());
    if (observe) observe(numbered_by_first_member(block, rounds));

    // Next round re-examines exactly the predecessors of the smaller
    // halves; patch block_old for the relabelled states only.
    dirty.reset_all();
    for (const int nb : fresh) {
      for (const int w : members[nb]) {
        block_old[w] = block[w];
        for (const auto& csr : pred) {
          for (int i = csr.offset[w]; i < csr.offset[w + 1]; ++i) {
            dirty.set(static_cast<std::size_t>(csr.data[i]));
          }
        }
      }
    }
    first = false;
  }

  return numbered_by_first_member(block, rounds);
}

/// Counting wrapper: one `refinements` per refinement run, `rounds` from
/// the deterministic result. Both are work counters, so they vanish
/// inside speculative parallel_find_first predicates (see parallel.hpp).
Partition refine(const KripkeModel& k, bool graded, int max_rounds,
                 const RoundObserver& observe = {}) {
  WM_TIME_SCOPE("bisim.refine");
  Partition p = refine_worklist(k, graded, max_rounds, observe);
  WM_COUNT(bisim.refinements);
  WM_COUNT_ADD(bisim.refine_rounds, p.rounds);
  return p;
}

}  // namespace

Partition coarsest_bisimulation(const KripkeModel& k, int max_rounds,
                                const RoundObserver& observe) {
  return refine(k, /*graded=*/false, max_rounds, observe);
}

Partition coarsest_graded_bisimulation(const KripkeModel& k, int max_rounds,
                                       const RoundObserver& observe) {
  return refine(k, /*graded=*/true, max_rounds, observe);
}

bool are_bisimilar(const KripkeModel& k, int u, int v, bool graded) {
  const Partition p = refine(k, graded, -1);
  return p.same_block(u, v);
}

bool bisimilar_across(const KripkeModel& a, int u, const KripkeModel& b, int v,
                      bool graded) {
  const KripkeModel un = KripkeModel::disjoint_union(a, b);
  return are_bisimilar(un, u, a.num_states() + v, graded);
}

namespace {

bool verify(const KripkeModel& k, const Partition& p, bool graded) {
  const int n = k.num_states();
  const auto modalities = k.modalities();
  const auto groups = p.blocks();
  for (const auto& group : groups) {
    if (group.empty()) continue;
    const int rep = group[0];
    for (int v : group) {
      // B1: atomic agreement.
      for (int q = 1; q <= k.num_props(); ++q) {
        if (k.prop_holds(q, v) != k.prop_holds(q, rep)) return false;
      }
      // B2/B3 (as sets) or B2*/B3* (as counts) against the representative.
      for (const Modality& alpha : modalities) {
        auto sig = [&](int s) {
          std::vector<int> blocks;
          for (int w : k.successors(alpha, s)) blocks.push_back(p.block[w]);
          std::sort(blocks.begin(), blocks.end());
          if (!graded) {
            blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
          }
          return blocks;
        };
        if (sig(v) != sig(rep)) return false;
      }
    }
  }
  (void)n;
  return true;
}

}  // namespace

bool verify_bisimulation_partition(const KripkeModel& k, const Partition& p) {
  return verify(k, p, /*graded=*/false);
}

bool verify_graded_bisimulation_partition(const KripkeModel& k,
                                          const Partition& p) {
  return verify(k, p, /*graded=*/true);
}

bool is_bisimulation_relation(const KripkeModel& k,
                              const std::vector<std::pair<int, int>>& z) {
  if (z.empty()) return false;  // the paper requires Z nonempty
  const std::set<std::pair<int, int>> rel(z.begin(), z.end());
  for (const auto& [v, v2] : rel) {
    // B1
    for (int q = 1; q <= k.num_props(); ++q) {
      if (k.prop_holds(q, v) != k.prop_holds(q, v2)) return false;
    }
    for (const Modality& alpha : k.modalities()) {
      // B2: every alpha-successor of v has a Z-partner among v2's.
      for (int w : k.successors(alpha, v)) {
        bool matched = false;
        for (int w2 : k.successors(alpha, v2)) {
          if (rel.contains({w, w2})) {
            matched = true;
            break;
          }
        }
        if (!matched) return false;
      }
      // B3: symmetric condition.
      for (int w2 : k.successors(alpha, v2)) {
        bool matched = false;
        for (int w : k.successors(alpha, v)) {
          if (rel.contains({w, w2})) {
            matched = true;
            break;
          }
        }
        if (!matched) return false;
      }
    }
  }
  return true;
}

}  // namespace wm
