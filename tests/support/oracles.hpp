// Scalar oracles the differential suites pin the production paths
// against. They are test support, not library API: never optimise them.
//
//  - model_check_naive: direct scalar recursion over std::vector<bool>
//    following the truth definition, no memoisation, exactly the
//    pre-bitset model checker. Exponential on DAG-shaped formulas; the
//    packed path (logic/model_checker.hpp) must match it bit for bit.
//  - coarsest_{,graded_}bisimulation_reference: round-synchronous
//    signature refinement, exactly the pre-Hopcroft implementation —
//    every round recomputes every state's signature against the whole
//    previous partition. The worklist path (bisim/bisimulation.hpp) must
//    match it exactly: same block ids, same round count. It stays off
//    the obs counters so reference runs never perturb gated totals.
#pragma once

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "bisim/bisimulation.hpp"
#include "logic/formula.hpp"
#include "logic/kripke.hpp"
#include "obs/counters.hpp"

namespace wm {

inline std::vector<bool> eval_naive(const KripkeModel& k, const Formula& f) {
  WM_COUNT(modelcheck.evals);
  const int n = k.num_states();
  std::vector<bool> out(static_cast<std::size_t>(n), false);
  switch (f.kind()) {
    case Formula::Kind::True:
      out.assign(static_cast<std::size_t>(n), true);
      break;
    case Formula::Kind::False:
      break;
    case Formula::Kind::Prop: {
      const int q = f.prop_id();
      if (q <= k.num_props()) {
        for (int v = 0; v < n; ++v) out[v] = k.prop_holds(q, v);
      }
      break;
    }
    case Formula::Kind::Not: {
      auto c = eval_naive(k, f.child());
      for (int v = 0; v < n; ++v) out[v] = !c[v];
      break;
    }
    case Formula::Kind::And: {
      auto a = eval_naive(k, f.child(0));
      auto b = eval_naive(k, f.child(1));
      for (int v = 0; v < n; ++v) out[v] = a[v] && b[v];
      break;
    }
    case Formula::Kind::Or: {
      auto a = eval_naive(k, f.child(0));
      auto b = eval_naive(k, f.child(1));
      for (int v = 0; v < n; ++v) out[v] = a[v] || b[v];
      break;
    }
    case Formula::Kind::Diamond: {
      auto c = eval_naive(k, f.child());
      const int need = f.grade();
      for (int v = 0; v < n; ++v) {
        int cnt = 0;
        for (int w : k.successors(f.modality(), v)) {
          if (c[w] && ++cnt >= need) break;
        }
        out[v] = cnt >= need;
      }
      break;
    }
    case Formula::Kind::Box: {
      auto c = eval_naive(k, f.child());
      for (int v = 0; v < n; ++v) {
        bool all = true;
        for (int w : k.successors(f.modality(), v)) {
          if (!c[w]) {
            all = false;
            break;
          }
        }
        out[v] = all;
      }
      break;
    }
  }
  return out;
}

inline std::vector<bool> model_check_naive(const KripkeModel& k,
                                           const Formula& phi) {
  return eval_naive(k, phi);
}

inline Partition refine_reference_impl(const KripkeModel& k, bool graded,
                                int max_rounds) {
  const int n = k.num_states();
  const auto modalities = k.modalities();

  Partition p = valuation_partition(k);

  for (int round = 0; max_rounds < 0 || round < max_rounds; ++round) {
    // Signature of v: (current block, per-modality set/multiset of
    // successor blocks).
    using Sig = std::pair<int, std::vector<std::vector<int>>>;
    std::map<Sig, int> dict;
    std::vector<int> next(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      std::vector<std::vector<int>> succ_sig;
      succ_sig.reserve(modalities.size());
      for (const Modality& alpha : modalities) {
        std::vector<int> blocks;
        for (int w : k.successors(alpha, v)) blocks.push_back(p.block[w]);
        std::sort(blocks.begin(), blocks.end());
        if (!graded) {
          blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
        }
        succ_sig.push_back(std::move(blocks));
      }
      Sig sig{p.block[v], std::move(succ_sig)};
      auto [it, _] = dict.try_emplace(std::move(sig), static_cast<int>(dict.size()));
      next[v] = it->second;
    }
    const int new_blocks = static_cast<int>(dict.size());
    if (new_blocks == p.num_blocks) {
      // Fixpoint: signatures refine the partition but produced no split.
      p.rounds = round;
      return p;
    }
    p.block = std::move(next);
    p.num_blocks = new_blocks;
    p.rounds = round + 1;
  }
  return p;
}

inline Partition coarsest_bisimulation_reference(const KripkeModel& k,
                                                 int max_rounds = -1) {
  return refine_reference_impl(k, /*graded=*/false, max_rounds);
}

inline Partition coarsest_graded_bisimulation_reference(const KripkeModel& k,
                                                        int max_rounds = -1) {
  return refine_reference_impl(k, /*graded=*/true, max_rounds);
}

}  // namespace wm
