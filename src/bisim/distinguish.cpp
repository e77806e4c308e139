#include "bisim/distinguish.hpp"

#include <algorithm>
#include <utility>

namespace wm {

namespace {

/// Each block's lowest-numbered state. Observed and returned partitions
/// number blocks by first member, so these come out in block-id order.
std::vector<int> first_members(const Partition& p) {
  std::vector<int> first;
  for (int v = 0; v < static_cast<int>(p.block.size()); ++v) {
    if (p.block[v] == static_cast<int>(first.size())) first.push_back(v);
  }
  return first;
}

/// chi^0: the full literal conjunction of each block's first member's
/// valuation profile.
std::vector<Formula> atomic_layer(const KripkeModel& k, const Partition& p) {
  std::vector<Formula> chi;
  for (const int s : first_members(p)) {
    FormulaVec conj;
    for (int q = 1; q <= k.num_props(); ++q) {
      conj.push_back(k.prop_holds(q, s) ? Formula::prop(q)
                                        : Formula::negate(Formula::prop(q)));
    }
    chi.push_back(Formula::conj_all(std::move(conj)));
  }
  return chi;
}

/// chi^{r+1} over `next` from chi^r over `prev` (the same partition past
/// the fixpoint), per block from its first member's successor counts
/// into the blocks of `prev`.
std::vector<Formula> next_layer(const KripkeModel& k, bool graded,
                                const Partition& prev,
                                const std::vector<Formula>& chi,
                                const Partition& next) {
  const std::vector<Modality>& mods = k.modalities();
  std::vector<int> count(static_cast<std::size_t>(prev.num_blocks));
  std::vector<Formula> out;
  for (const int s : first_members(next)) {
    FormulaVec conj{chi[prev.block[s]]};
    for (int a = 0; a < static_cast<int>(mods.size()); ++a) {
      const Modality& alpha = mods[a];
      std::fill(count.begin(), count.end(), 0);
      for (const int w : k.successors(a, s)) ++count[prev.block[w]];
      for (int c = 0; c < prev.num_blocks; ++c) {
        if (graded) {
          if (count[c] > 0) {
            conj.push_back(Formula::diamond(alpha, chi[c], count[c]));
          }
          conj.push_back(
              Formula::negate(Formula::diamond(alpha, chi[c], count[c] + 1)));
        } else {
          const Formula d = Formula::diamond(alpha, chi[c]);
          conj.push_back(count[c] > 0 ? d : Formula::negate(d));
        }
      }
    }
    out.push_back(Formula::conj_all(std::move(conj)));
  }
  return out;
}

/// Folds the refinement's observed rounds, in order, into formula layers.
struct Layers {
  const KripkeModel& k;
  bool graded;
  Partition part;            // the last round added
  std::vector<Formula> chi;  // per block of `part`

  void add(const Partition& next) {
    chi = next.rounds == 0 ? atomic_layer(k, next)
                           : next_layer(k, graded, part, chi, next);
    part = next;
  }
};

Partition refine(const KripkeModel& k, int rounds, bool graded,
                 const RoundObserver& observe) {
  return graded ? coarsest_graded_bisimulation(k, rounds, observe)
                : coarsest_bisimulation(k, rounds, observe);
}

}  // namespace

CharacteristicFormulas characteristic_formulas(const KripkeModel& k,
                                               int rounds, bool graded) {
  Layers layers{k, graded, {}, {}};
  Partition p = refine(k, rounds, graded,
                       [&](const Partition& next) { layers.add(next); });
  for (int r = p.rounds; r < rounds; ++r) {
    layers.chi = next_layer(k, graded, p, layers.chi, p);
  }
  return {std::move(p), std::move(layers.chi)};
}

Formula characteristic_formula(const KripkeModel& k, int state, bool graded) {
  const CharacteristicFormulas c = characteristic_formulas(k, -1, graded);
  return c.chi[c.partition.block[state]];
}

std::optional<Formula> distinguishing_formula(const KripkeModel& k, int u,
                                              int v, bool graded) {
  Layers layers{k, graded, {}, {}};
  std::optional<Formula> found;
  refine(k, -1, graded, [&](const Partition& next) {
    if (found) return;
    layers.add(next);
    if (!next.same_block(u, v)) found = layers.chi[next.block[u]];
  });
  return found;
}

}  // namespace wm
