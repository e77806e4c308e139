#include "core/decision.hpp"

#include <limits>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/visitor.hpp"

namespace wm {

namespace {

/// |Y|^blocks with saturation (the budget check rejects anything large,
/// so saturation only guards the arithmetic, never a real scan).
std::uint64_t saturating_pow(std::uint64_t base, int exp) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t acc = 1;
  for (int i = 0; i < exp; ++i) {
    if (base != 0 && acc > kMax / base) return kMax;
    acc *= base;
  }
  return acc;
}

/// Assignment index -> block colouring, mixed radix with block 0 as the
/// least significant digit — precisely the order the sequential odometer
/// enumerates, so index order IS odometer order.
void colouring_for_index(std::uint64_t a, const std::vector<int>& alphabet,
                         std::vector<int>& colour) {
  const std::uint64_t y = alphabet.size();
  for (std::size_t b = 0; b < colour.size(); ++b) {
    colour[b] = alphabet[static_cast<std::size_t>(a % y)];
    a /= y;
  }
}

}  // namespace

KripkeModel joint_model(const std::vector<PortNumbering>& scope,
                        Variant variant, int delta, ThreadPool* pool,
                        std::vector<int>* offsets) {
  // The per-instance Kripke builds are independent: the visitor runs
  // them into index-ordered slots, and the union numbers states in slot
  // order, so every block id is thread-count-invariant.
  std::vector<KripkeModel> parts(scope.size());
  ParallelVisitor(pool).for_each(scope.size(), [&](std::uint64_t i) {
    parts[i] = kripke_from_graph(scope[i], variant, delta);
  });
  return KripkeModel::disjoint_union(parts, offsets);
}

Decision decide_solvable(const Problem& problem,
                         const std::vector<PortNumbering>& scope,
                         ProblemClass c, const DecisionOptions& opts) {
  WM_TRACE_SCOPE("decision");
  WM_TIME_SCOPE("decision.decide");
  WM_COUNT(decision.calls);
  const Variant variant = kripke_variant_for(c);
  const bool graded = graded_logic_for(c);

  int delta = opts.delta;
  if (delta < 0) {
    delta = 0;
    for (const PortNumbering& p : scope) {
      delta = std::max(delta, p.graph().max_degree());
    }
  }

  std::vector<int> offset;
  const KripkeModel joint = joint_model(scope, variant, delta, opts.pool,
                                        &offset);
  const Partition part = graded
                             ? coarsest_graded_bisimulation(joint, opts.rounds)
                             : coarsest_bisimulation(joint, opts.rounds);
  Decision decision;
  decision.blocks = part.num_blocks;
  WM_COUNT_ADD(decision.blocks, part.num_blocks);

  const std::vector<int> alphabet = problem.output_alphabet();
  const std::uint64_t combos =
      saturating_pow(alphabet.size(), part.num_blocks);
  if (combos > opts.max_assignments) {
    throw DecisionBudgetError(
        "decide_solvable: |Y|^blocks exceeds the assignment budget (" +
        std::to_string(part.num_blocks) + " blocks)");
  }

  auto outputs_valid = [&](const std::vector<int>& colour) {
    for (std::size_t i = 0; i < scope.size(); ++i) {
      const Graph& g = scope[i].graph();
      std::vector<int> out(static_cast<std::size_t>(g.num_nodes()));
      for (int v = 0; v < g.num_nodes(); ++v) {
        out[v] = colour[part.block[offset[i] + v]];
      }
      if (!problem.valid(g, out)) return false;
    }
    return true;
  };

  // Liveness for the |Y|^blocks colouring scan. Ticks from the
  // speculative parallel predicate are deliberate: progress counts
  // candidates *evaluated* (timing-dependent, like any rate), never
  // feeding the work counters the regression gate reads.
  obs::ProgressTask progress("decision.scan", combos);

  // Lowest-witness contract of find_first == the first assignment a
  // sequential odometer would accept, so the decision bit AND the
  // colouring AND assignments_tried are identical at any worker count.
  const ParallelVisitor visitor(opts.pool);
  const auto hit = visitor.find_first(0, combos, [&](std::uint64_t a) {
    progress.tick();
    std::vector<int> colour(static_cast<std::size_t>(part.num_blocks));
    colouring_for_index(a, alphabet, colour);
    return outputs_valid(colour);
  });
  if (hit) {
    decision.solvable = true;
    decision.block_output.resize(static_cast<std::size_t>(part.num_blocks));
    colouring_for_index(*hit, alphabet, decision.block_output);
    decision.assignments_tried = static_cast<std::size_t>(*hit) + 1;
  } else {
    decision.assignments_tried = static_cast<std::size_t>(combos);
  }
  // Counted from the deterministic witness, not inside the predicate
  // (which runs on a timing-dependent index set — see visitor.hpp).
  WM_COUNT_ADD(decision.assignments, decision.assignments_tried);
  return decision;
}

}  // namespace wm
