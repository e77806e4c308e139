// Model checking: ||phi||_K = {v : K, v |= phi} (Section 4.1).
#pragma once

#include <vector>

#include "logic/formula.hpp"
#include "logic/kripke.hpp"
#include "util/bitset.hpp"

namespace wm {

/// Evaluates phi on every state of K as a packed bitset: bit v is set iff
/// K, v |= phi. Bottom-up over the subformula closure with a memo of
/// packed rows — Boolean connectives run word-wise (64 states per op),
/// modal sweeps gather through the packed child row. This is the
/// production representation; prefer it when the caller can consume bits.
Bitset model_check_bits(const KripkeModel& k, const Formula& phi);

/// Same result unpacked: result[v] == true iff K, v |= phi.
std::vector<bool> model_check(const KripkeModel& k, const Formula& phi);

/// Single-state convenience.
bool model_check_at(const KripkeModel& k, const Formula& phi, int state);

}  // namespace wm
