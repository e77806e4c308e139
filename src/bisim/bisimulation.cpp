#include "bisim/bisimulation.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
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

// --- Round-synchronous worklist refinement -------------------------------
//
// Each round splits every block by its states' per-modality successor-block
// (multi)sets against the start-of-round partition, computed
// incrementally. Block ids are *stable*: when a block splits, its largest
// part keeps the parent id and only the smaller parts get fresh ids. A
// state's signature can therefore change between rounds only if some
// successor moved into a fresh block — so the next round re-examines
// exactly the blocks holding a predecessor of a moved state, and states
// inside an untouched block provably cannot separate. Because every fresh
// block is at most half its parent, each state moves O(log n) times:
// Hopcroft's bound for the propagation work. Rounds and the per-round
// partitions coincide exactly with a full signature pass per round (the
// scalar oracle in tests/support/oracles.hpp; the clean-state lemma in
// DESIGN.md §3), which is what keeps `bisim.refine_rounds` — and
// bounded-refinement semantics, i.e. modal depth — invariant, and what
// lets an observer see each round as the reference numbers it.
//
// The edges are read in place from the model's store (out-edges and
// merged predecessors, logic/kripke.hpp). Everything else lives in flat
// per-call arrays: the blocks as ranges of one element array, and the
// signatures of the block being split in one reused arena, grouped by an
// open-addressing table.

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

/// Groups the states of one block by signature: the sorted (modality,
/// start-of-round block) pairs of their out-edges, deduplicated when
/// ungraded. The signatures sit in one arena reused across blocks; an
/// open-addressing table finds each one's group, its hash only placing
/// the probe — equality is decided on the full slice. Groups are
/// numbered in first-seen order.
class SignatureGrouper {
 public:
  explicit SignatureGrouper(const KripkeModel& k) : k_(k) {
    arena_.reserve(k.num_edges());
    sig_begin_.reserve(static_cast<std::size_t>(k.num_states()) + 1);
  }

  /// Groups `states` by signature against `block`; returns the group
  /// count. group_of()[i] is the group of states[i], size()[g] the size
  /// of group g.
  int group(std::span<const int> states, const std::vector<int>& block,
            bool graded) {
    std::size_t slots = 4;
    while (slots < 2 * states.size()) slots *= 2;
    const std::size_t mask = slots - 1;
    table_.assign(slots, -1);
    arena_.clear();
    sig_begin_.assign(1, 0);
    group_of_.clear();
    size_.clear();
    rep_.clear();
    hash_.clear();
    for (const int v : states) {
      const auto start = static_cast<std::ptrdiff_t>(arena_.size());
      const std::span<const int> ids = k_.out_modalities(v);
      const std::span<const int> targets = k_.out_targets(v);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        arena_.push_back(static_cast<std::uint64_t>(ids[i]) << 32 |
                         static_cast<std::uint32_t>(block[targets[i]]));
      }
      std::sort(arena_.begin() + start, arena_.end());
      if (!graded) {
        arena_.erase(std::unique(arena_.begin() + start, arena_.end()),
                     arena_.end());
      }
      sig_begin_.push_back(arena_.size());
      const std::size_t i = group_of_.size();
      const std::span<const std::uint64_t> sig = slice(i);
      std::uint64_t h = sig.size();
      for (const std::uint64_t x : sig) h = hash_mix(h ^ x);
      std::size_t slot = static_cast<std::size_t>(h) & mask;
      int g = table_[slot];
      while (g >= 0 &&
             !(hash_[g] == h && std::ranges::equal(slice(rep_[g]), sig))) {
        slot = (slot + 1) & mask;
        g = table_[slot];
      }
      if (g < 0) {
        g = static_cast<int>(size_.size());
        table_[slot] = g;
        size_.push_back(0);
        rep_.push_back(i);
        hash_.push_back(h);
      }
      group_of_.push_back(g);
      ++size_[g];
    }
    return static_cast<int>(size_.size());
  }

  const std::vector<int>& group_of() const { return group_of_; }
  const std::vector<int>& size() const { return size_; }

 private:
  std::span<const std::uint64_t> slice(std::size_t i) const {
    return {arena_.data() + sig_begin_[i], sig_begin_[i + 1] - sig_begin_[i]};
  }

  const KripkeModel& k_;
  std::vector<std::uint64_t> arena_;  // the block's signatures, back to back
  std::vector<std::size_t> sig_begin_;
  std::vector<int> table_;  // slot -> group, -1 when empty
  std::vector<int> group_of_;
  std::vector<int> size_;
  std::vector<std::size_t> rep_;  // first member of each group
  std::vector<std::uint64_t> hash_;
};

Partition refine_worklist(const KripkeModel& k, bool graded, int max_rounds,
                          const RoundObserver& observe) {
  Partition initial = valuation_partition(k);
  if (observe) observe(initial);
  if (max_rounds == 0) return initial;

  const int n = k.num_states();
  // Blocks are ranges of `elems`: block b holds elems[lo[b], hi[b]),
  // initially in state order. `block` keeps every state's
  // start-of-round id while a round runs.
  std::vector<int> block = std::move(initial.block);
  int num_blocks = initial.num_blocks;
  std::vector<int> lo(static_cast<std::size_t>(num_blocks), 0);
  for (const int b : block) ++lo[b];
  for (int b = 0, start = 0; b < num_blocks; ++b) {
    const int size = lo[b];
    lo[b] = start;
    start += size;
  }
  std::vector<int> hi = lo;
  std::vector<int> elems(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) elems[hi[block[v]]++] = v;

  SignatureGrouper grouper(k);
  std::vector<int> part_start;  // group -> offset in the rewritten range
  std::vector<int> scratch;
  std::vector<int> touched(static_cast<std::size_t>(num_blocks));
  std::iota(touched.begin(), touched.end(), 0);
  std::vector<int> touched_round(static_cast<std::size_t>(n), 0);
  std::vector<int> fresh;  // blocks created this round
  int rounds = 0;

  while (!touched.empty() && (max_rounds < 0 || rounds < max_rounds)) {
    fresh.clear();
    for (const int b : touched) {
      const std::span<int> range(elems.data() + lo[b],
                                 static_cast<std::size_t>(hi[b] - lo[b]));
      if (range.size() <= 1) continue;
      const int groups = grouper.group(range, block, graded);
      if (groups == 1) continue;
      // The largest part keeps the parent id (first-seen wins ties); the
      // smaller parts get fresh ids and become next round's splitters.
      const std::vector<int>& size = grouper.size();
      const int keep = static_cast<int>(
          std::max_element(size.begin(), size.end()) - size.begin());
      // Rewrite the range in place, kept part first, the others in group
      // order, each keeping its states' relative order.
      part_start.resize(static_cast<std::size_t>(groups));
      int offset = size[keep];
      part_start[keep] = 0;
      for (int g = 0; g < groups; ++g) {
        if (g == keep) continue;
        part_start[g] = offset;
        fresh.push_back(num_blocks++);
        lo.push_back(lo[b] + offset);
        offset += size[g];
        hi.push_back(lo[b] + offset);
      }
      scratch.resize(range.size());
      for (std::size_t i = 0; i < range.size(); ++i) {
        scratch[part_start[grouper.group_of()[i]]++] = range[i];
      }
      std::copy(scratch.begin(), scratch.end(), range.begin());
      hi[b] = lo[b] + size[keep];
    }
    if (fresh.empty()) break;
    ++rounds;
    WM_COUNT_ADD(bisim.split_smaller, fresh.size());
    for (const int nb : fresh) {
      for (int i = lo[nb]; i < hi[nb]; ++i) block[elems[i]] = nb;
    }
    if (observe) observe(numbered_by_first_member(block, rounds));

    // Next round re-examines exactly the blocks holding a predecessor of
    // a state that moved, in block-id order.
    touched.clear();
    for (const int nb : fresh) {
      for (int i = lo[nb]; i < hi[nb]; ++i) {
        for (const int u : k.predecessors(elems[i])) {
          const int b = block[u];
          if (touched_round[b] != rounds) {
            touched_round[b] = rounds;
            touched.push_back(b);
          }
        }
      }
    }
    std::sort(touched.begin(), touched.end());
  }

  return numbered_by_first_member(block, rounds);
}

/// Counting wrapper: one `refinements` per refinement run, `rounds` from
/// the deterministic result. Both are work counters, so they vanish
/// inside speculative parallel_find_first predicates (see parallel.hpp).
Partition refine(const KripkeModel& k, bool graded, int max_rounds,
                 const RoundObserver& observe = {}) {
  WM_SCOPE("bisim.refine");
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
  const std::vector<Modality>& modalities = k.modalities();
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
