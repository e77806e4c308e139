// Graph problems (Section 1.4): a problem Pi maps each graph G to a set
// Pi(G) of valid solutions S : V -> Y. We represent solutions as integer
// vectors (Y is a finite set of ints for every problem in the catalogue)
// and problems by their verifier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace wm {

class Problem {
 public:
  virtual ~Problem() = default;

  virtual std::string name() const = 0;

  /// Is `output` (one value per node) in Pi(g)?
  virtual bool valid(const Graph& g, const std::vector<int>& output) const = 0;

  /// The output alphabet Y (used by exhaustive solution enumeration).
  virtual std::vector<int> output_alphabet() const { return {0, 1}; }
};

using ProblemPtr = std::shared_ptr<const Problem>;

/// Enumerates all outputs in Y^V and calls fn; stops early on false.
/// Returns number visited. Only for graphs with |Y|^n manageable.
std::size_t for_each_output(const Problem& p, const Graph& g,
                            const std::function<bool(const std::vector<int>&)>& fn);

/// Corollary 3's premise, checked by brute force: every valid solution S
/// splits X (some u in X has S(u) != S(v) for some v in X). Requires
/// |Y|^n to be small.
bool every_solution_splits(const Problem& p, const Graph& g,
                           const std::vector<NodeId>& x);

}  // namespace wm
