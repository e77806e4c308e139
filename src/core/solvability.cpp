#include "core/solvability.hpp"

#include <limits>
#include <stdexcept>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "util/cancel.hpp"
#include "util/visitor.hpp"

namespace wm {

ScopedInstance instance_for(const Problem& problem, PortNumbering numbering,
                            ThreadPool* pool, const CancelToken* cancel) {
  WM_TRACE_SCOPE("solvability.instance");
  WM_TIME_SCOPE("solvability.instance");
  WM_COUNT(solvability.instances);
  ScopedInstance inst;
  const Graph& g = numbering.graph();
  std::optional<std::vector<int>> unique;
  if (pool != nullptr) {
    const auto space = output_space_size(problem, g);
    if (!space) {
      throw std::invalid_argument(
          "instance_for: output space too large to scan");
    }
    // Chunk-ordered reduction to (lowest valid index, number of valid
    // outputs): a pure function of the output space, so the scan agrees
    // with the sequential odometer at any thread count.
    constexpr std::uint64_t kNone = std::numeric_limits<std::uint64_t>::max();
    struct Acc {
      std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
      std::uint64_t count = 0;
    };
    const Acc acc = ParallelVisitor(pool).reduce<Acc>(
        *space, Acc{},
        [&](std::uint64_t i) -> Acc {
          const std::vector<int> out = output_for_index(problem, g, i);
          if (problem.valid(g, out)) return Acc{i, 1};
          return Acc{kNone, 0};
        },
        [](Acc a, Acc b) {
          return Acc{a.first < b.first ? a.first : b.first,
                     a.count + b.count};
        });
    if (acc.count > 1) {
      throw std::invalid_argument(
          "instance_for: problem has multiple valid solutions on this graph");
    }
    if (acc.count == 1) unique = output_for_index(problem, g, acc.first);
    WM_COUNT_ADD(solvability.outputs_scanned, *space);
  } else {
    std::uint64_t scanned = 0;
    for_each_output(problem, g, [&](const std::vector<int>& out) {
      ++scanned;
      if ((scanned & 1023) == 0) poll_cancel(cancel);
      if (problem.valid(g, out)) {
        if (unique) {
          throw std::invalid_argument(
              "instance_for: problem has multiple valid solutions on this "
              "graph");
        }
        unique = out;
      }
      return true;
    });
    WM_COUNT_ADD(solvability.outputs_scanned, scanned);
  }
  if (!unique) {
    throw std::invalid_argument("instance_for: problem has no valid solution");
  }
  inst.numbering = std::move(numbering);
  inst.target = std::move(*unique);
  return inst;
}

SolvabilityReport analyse_solvability(const std::vector<ScopedInstance>& scope,
                                      ProblemClass c, int delta,
                                      int max_rounds, ThreadPool* pool,
                                      const CancelToken* cancel) {
  WM_TRACE_SCOPE("solvability.analyse");
  WM_TIME_SCOPE("solvability.analyse");
  WM_COUNT(solvability.analyses);
  const Variant variant = kripke_variant_for(c);
  // Multiset classes see multiplicities: graded refinement. Set classes
  // and Vector classes use ungraded refinement — Vector's extra per-port
  // structure is already encoded in the (i, j)-indexed relations.
  const bool graded = graded_logic_for(c);

  // Joint model + flattened targets.
  std::vector<KripkeModel> parts;
  parts.reserve(scope.size());
  std::vector<int> target;
  for (const ScopedInstance& inst : scope) {
    parts.push_back(kripke_from_graph(inst.numbering, variant, delta));
    target.insert(target.end(), inst.target.begin(), inst.target.end());
  }
  const KripkeModel joint = KripkeModel::disjoint_union(parts);

  auto partition_at = [&](int t) {
    poll_cancel(cancel);
    return graded ? coarsest_graded_bisimulation(joint, t)
                  : coarsest_bisimulation(joint, t);
  };
  auto monochromatic = [&](const Partition& p) {
    std::vector<int> colour(static_cast<std::size_t>(p.num_blocks), -1);
    for (int v = 0; v < joint.num_states(); ++v) {
      int& c2 = colour[p.block[v]];
      if (c2 < 0) {
        c2 = target[v];
      } else if (c2 != target[v]) {
        return false;
      }
    }
    return true;
  };

  SolvabilityReport report;
  // The t-step refinements are independent recomputations; both scans
  // are lowest-witness searches, so the report is deterministic. The
  // monochromatic search range never probes beyond the fixpoint round
  // (nor beyond the cap).
  ParallelVisitor visitor(pool);
  const auto fix = visitor.find_first(
      1, static_cast<std::uint64_t>(max_rounds) + 1, [&](std::uint64_t t) {
        const int ti = static_cast<int>(t);
        return partition_at(ti).num_blocks == partition_at(ti - 1).num_blocks;
      });
  int mono_cap;  // inclusive upper bound for the min_rounds search
  if (fix) {
    const int t_fix = static_cast<int>(*fix);
    report.fixpoint_rounds = t_fix - 1;
    report.blocks = partition_at(t_fix).num_blocks;
    mono_cap = t_fix;
  } else {
    const Partition p = graded ? coarsest_graded_bisimulation(joint)
                               : coarsest_bisimulation(joint);
    report.fixpoint_rounds = p.rounds;
    report.blocks = p.num_blocks;
    mono_cap = max_rounds;
  }
  const auto mono = visitor.find_first(
      0, static_cast<std::uint64_t>(mono_cap) + 1, [&](std::uint64_t t) {
        return monochromatic(partition_at(static_cast<int>(t)));
      });
  if (mono) report.min_rounds = static_cast<int>(*mono);
  WM_COUNT_ADD(solvability.fixpoint_rounds, report.fixpoint_rounds);
  WM_COUNT_ADD(solvability.blocks, report.blocks);
  return report;
}

}  // namespace wm
