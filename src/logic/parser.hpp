// Parser for the formula syntax produced by Formula::to_string():
//
//   formula := disj
//   disj    := conj ('|' conj)*
//   conj    := unary ('&' unary)*
//   unary   := '~' unary | '<'mod'>' ['>=' INT] unary | '['mod']' unary | atom
//   atom    := 'T' | 'F' | 'q' INT | '(' formula ')'
//   mod     := part ',' part        part := '*' | INT
//
// `parse_formula(to_string(f)) == f` holds up to associativity of the
// printed (left-nested) binary operators — exact round-trip is tested.
#pragma once

#include <stdexcept>
#include <string>

#include "logic/formula.hpp"

namespace wm {

class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Height bound on a parsed formula. Each `~`, modality and pair of
/// parentheses opens one level, and each `&`/`|` link of a chain adds
/// one (a chain builds a left-deep tree). The parser refuses once the
/// levels open around a subtree plus the subtree's height pass the
/// bound, before it recurses any further. So its own recursion and
/// every walk over the result (to_string, max_prop, the model checker,
/// the destructor) stay well inside a thread's stack. A printed formula
/// (to_string parenthesises each link) measures at most its height + 1.
///
/// On an 8 MiB stack the model checker's recursion overflows near 3,100
/// levels in an ASan build and near 37,000 in a RelWithDebInfo one
/// (GCC 12), so 1024 leaves a 3x margin in the sanitizer tier.
inline constexpr int kMaxFormulaHeight = 1024;

/// Parses a formula; throws ParseError on malformed input, including a
/// formula that passes kMaxFormulaHeight.
Formula parse_formula(const std::string& text);

}  // namespace wm
