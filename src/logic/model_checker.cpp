#include "logic/model_checker.hpp"

#include <unordered_map>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"

namespace wm {

namespace {

// --- Packed fast path -----------------------------------------------------
//
// ||phi||_K is one Bitset over the state set; every Boolean connective is
// a word loop (64 states per operation). The memo maps subformulas to
// their packed denotations and eval_bits returns *references* into it:
// unordered_map nodes are pointer-stable across rehash, so a parent can
// hold its children's rows by reference while inserting its own — no
// copy-on-eval (the former std::vector<bool> memo copied every hit).
// modelcheck.word_ops counts the 64-bit words written by those bulk
// passes: a deterministic function of (model, formula), hence work-kind.

using Memo = std::unordered_map<Formula, Bitset>;

const Bitset& eval_bits(const KripkeModel& k, const Formula& f, Memo& memo) {
  WM_COUNT(modelcheck.evals);
  if (auto it = memo.find(f); it != memo.end()) {
    WM_COUNT(modelcheck.memo_hits);
    return it->second;
  }
  const auto n = static_cast<std::size_t>(k.num_states());
  Bitset out(n);
  switch (f.kind()) {
    case Formula::Kind::True:
      out.set_all();
      WM_COUNT_ADD(modelcheck.word_ops, out.num_words());
      break;
    case Formula::Kind::False:
      break;
    case Formula::Kind::Prop: {
      const int q = f.prop_id();
      if (q <= k.num_props()) {
        out = k.prop_bits(q);
        WM_COUNT_ADD(modelcheck.word_ops, out.num_words());
      }
      break;
    }
    case Formula::Kind::Not: {
      out = eval_bits(k, f.child(), memo);
      out.flip();
      WM_COUNT_ADD(modelcheck.word_ops, 2 * out.num_words());
      break;
    }
    case Formula::Kind::And: {
      out = eval_bits(k, f.child(0), memo);
      out &= eval_bits(k, f.child(1), memo);
      WM_COUNT_ADD(modelcheck.word_ops, 2 * out.num_words());
      break;
    }
    case Formula::Kind::Or: {
      out = eval_bits(k, f.child(0), memo);
      out |= eval_bits(k, f.child(1), memo);
      WM_COUNT_ADD(modelcheck.word_ops, 2 * out.num_words());
      break;
    }
    case Formula::Kind::Diamond: {
      const Bitset& c = eval_bits(k, f.child(), memo);
      const int need = f.grade();
      for (int v = 0; v < k.num_states(); ++v) {
        int cnt = 0;
        for (int w : k.successors(f.modality(), v)) {
          if (c.test(static_cast<std::size_t>(w)) && ++cnt >= need) break;
        }
        if (cnt >= need) out.set(static_cast<std::size_t>(v));
      }
      break;
    }
    case Formula::Kind::Box: {
      const Bitset& c = eval_bits(k, f.child(), memo);
      for (int v = 0; v < k.num_states(); ++v) {
        bool all = true;
        for (int w : k.successors(f.modality(), v)) {
          if (!c.test(static_cast<std::size_t>(w))) {
            all = false;
            break;
          }
        }
        if (all) out.set(static_cast<std::size_t>(v));
      }
      break;
    }
  }
  return memo.emplace(f, std::move(out)).first->second;
}

}  // namespace

Bitset model_check_bits(const KripkeModel& k, const Formula& phi) {
  WM_TIME_SCOPE("modelcheck.check");
  WM_COUNT(modelcheck.checks);
  Memo memo;
  eval_bits(k, phi, memo);
  return std::move(memo.find(phi)->second);  // the root's row; memo dies here
}

std::vector<bool> model_check(const KripkeModel& k, const Formula& phi) {
  return model_check_bits(k, phi).to_bools();
}

bool model_check_at(const KripkeModel& k, const Formula& phi, int state) {
  return model_check_bits(k, phi).test(static_cast<std::size_t>(state));
}

}  // namespace wm
