#include "bisim/definability.hpp"

#include <algorithm>

#include "util/bitset.hpp"

namespace wm {

namespace {

// Internal representation: packed bitsets, ordered lexicographically by
// (size, words) so std::set dedups them. Complement and intersection are
// word loops; only the API boundary unpacks. Note Bitset's ordering is
// NOT the std::vector<bool> lexicographic order — irrelevant here, since
// the public result is re-keyed into set<vector<bool>> below and set
// equality is order-independent.
using Family = std::set<Bitset>;

void guard(const Family& family, std::size_t max_sets) {
  if (family.size() > max_sets) {
    throw DefinabilityBudgetError("definable_sets: family exceeds the budget");
  }
}

/// Closes the family under complement and pairwise intersection (hence,
/// with De Morgan, under all Boolean combinations).
void boolean_closure(Family& family, std::size_t max_sets) {
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<Bitset> snapshot(family.begin(), family.end());
    for (const auto& s : snapshot) {
      changed |= family.insert(~s).second;
    }
    guard(family, max_sets);
    snapshot.assign(family.begin(), family.end());
    for (std::size_t a = 0; a < snapshot.size(); ++a) {
      for (std::size_t b = a + 1; b < snapshot.size(); ++b) {
        changed |= family.insert(snapshot[a] & snapshot[b]).second;
      }
      guard(family, max_sets);
    }
  }
}

/// ||<alpha>_{>=g} S||: states with at least g alpha-successors in S,
/// alpha given by its dense id `a`.
Bitset diamond_preimage(const KripkeModel& k, int a, const Bitset& s,
                        int grade) {
  Bitset out(s.size());
  for (int v = 0; v < k.num_states(); ++v) {
    int count = 0;
    for (int w : k.successors(a, v)) {
      if (s.test(static_cast<std::size_t>(w)) && ++count >= grade) break;
    }
    if (count >= grade) out.set(static_cast<std::size_t>(v));
  }
  return out;
}

std::set<std::vector<bool>> unpack(const Family& family) {
  std::set<std::vector<bool>> out;
  for (const auto& s : family) out.insert(s.to_bools());
  return out;
}

}  // namespace

std::set<std::vector<bool>> definable_sets(const KripkeModel& k, int depth,
                                           bool graded, std::size_t max_sets) {
  const auto n = static_cast<std::size_t>(k.num_states());
  Family family;
  family.insert(Bitset(n, true));   // T
  family.insert(Bitset(n, false));  // F
  for (int q = 1; q <= k.num_props(); ++q) {
    family.insert(k.prop_bits(q));
  }
  boolean_closure(family, max_sets);

  // Max useful grade per modality (by dense id): the largest out-degree.
  const int num_modalities = static_cast<int>(k.modalities().size());
  std::vector<int> max_grade(static_cast<std::size_t>(num_modalities), 1);
  for (int a = 0; a < num_modalities; ++a) {
    for (int v = 0; v < k.num_states(); ++v) {
      max_grade[a] = std::max(max_grade[a],
                              static_cast<int>(k.successors(a, v).size()));
    }
  }

  for (int t = 0; depth < 0 || t < depth; ++t) {
    Family next = family;
    for (const auto& s : family) {
      for (int a = 0; a < num_modalities; ++a) {
        const int top = graded ? max_grade[a] : 1;
        for (int g = 1; g <= top; ++g) {
          next.insert(diamond_preimage(k, a, s, g));
        }
      }
      guard(next, max_sets);
    }
    boolean_closure(next, max_sets);
    if (next == family) break;  // fixpoint
    family = std::move(next);
  }
  return unpack(family);
}

std::set<std::vector<bool>> unions_of_blocks(const Partition& p, int num_states,
                                             std::size_t max_sets) {
  if (p.num_blocks > 30 ||
      (1ull << p.num_blocks) > max_sets) {
    throw DefinabilityBudgetError("unions_of_blocks: too many blocks");
  }
  Family family;
  for (std::uint64_t mask = 0; mask < (1ull << p.num_blocks); ++mask) {
    Bitset s(static_cast<std::size_t>(num_states));
    for (int v = 0; v < num_states; ++v) {
      if ((mask >> p.block[v]) & 1) s.set(static_cast<std::size_t>(v));
    }
    family.insert(std::move(s));
  }
  return unpack(family);
}

}  // namespace wm
