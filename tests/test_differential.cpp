// Differential tests: serial ≡ parallel, pinned end to end.
//
// Each suite runs one of the library's candidate-space scans with
// pool = nullptr (the sequential reference) and on 2- and 8-worker
// pools, over seeded-random and exhaustive small inputs, and requires
// IDENTICAL results — witnesses included, not just verdicts. The
// determinism contract under test: parallel_find_first returns the
// lowest witness, dedup tables keep per-key minima, reductions are
// chunk-ordered (see DESIGN.md). Cross-checks tie the results back to
// the paper's semantics: synthesised machines must actually solve their
// problem on every port numbering in scope when executed by the engine,
// and quotient-search models must be bisimilar to what they quotient.
//
// Suites are named differential_* so `ctest -R differential` selects
// exactly this layer. WM_SEED=<n> narrows the random inputs to one seed
// (failure messages print the seed to reproduce).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bisim/bisimulation.hpp"
#include "bisim/quotient.hpp"
#include "core/decision.hpp"
#include "core/solvability.hpp"
#include "core/synthesis.hpp"
#include "cover/covering.hpp"
#include "graph/generators.hpp"
#include "logic/kripke.hpp"
#include "port/port_numbering.hpp"
#include "problems/catalogue.hpp"
#include "runtime/engine.hpp"
#include "support/canon_harness.hpp"
#include "support/diff_harness.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace wm {
namespace {

using difftest::expect_serial_equals_parallel;
using difftest::seeds_under_test;
using difftest::thread_counts;

// --- helpers ---------------------------------------------------------------

std::string decision_summary(const Decision& d) {
  std::ostringstream os;
  os << "solvable=" << d.solvable << " blocks=" << d.blocks
     << " tried=" << d.assignments_tried << " outputs=";
  for (int v : d.block_output) os << v << ",";
  return os.str();
}

std::string vec_summary(const std::vector<int>& v) {
  std::ostringstream os;
  for (int x : v) os << x << ",";
  return os.str();
}

std::string node_vec_summary(const std::vector<NodeId>& v) {
  std::ostringstream os;
  for (NodeId x : v) os << x << ",";
  return os.str();
}

std::vector<PortNumbering> star_scope(int k_max) {
  std::vector<PortNumbering> scope;
  for (int k = 2; k <= k_max; ++k) {
    scope.push_back(PortNumbering::identity(star_graph(k)));
  }
  return scope;
}

std::vector<PortNumbering> random_scope(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PortNumbering> scope;
  for (int n : {4, 5}) {
    const Graph g = random_connected_graph(n, 3, 2, rng);
    scope.push_back(PortNumbering::random(g, rng));
  }
  return scope;
}

// --- decision --------------------------------------------------------------

TEST(differential_decision, ExhaustiveSmallScopesAllClasses) {
  struct Case {
    const char* name;
    ProblemPtr problem;
    std::vector<PortNumbering> scope;
  };
  const std::vector<Case> cases = {
      {"leaf-in-star", leaf_in_star_problem(), star_scope(4)},
      {"eulerian", eulerian_decision_problem(),
       {PortNumbering::identity(cycle_graph(4)),
        PortNumbering::identity(path_graph(4))}},
      {"mis-symmetric-C6", maximal_independent_set_problem(),
       {mis_cycle_witness(6).numbering}},
  };
  for (const Case& c : cases) {
    for (const ProblemClass cls : all_problem_classes()) {
      for (const int rounds : {0, 1, -1}) {
        expect_serial_equals_parallel(c.name, [&](ThreadPool* pool) {
          DecisionOptions opts;
          opts.rounds = rounds;
          opts.pool = pool;
          return decision_summary(
              decide_solvable(*c.problem, c.scope, cls, opts));
        });
      }
    }
  }
}

TEST(differential_decision, SeededRandomScopes) {
  for (const std::uint64_t seed : seeds_under_test()) {
    const std::vector<PortNumbering> scope = random_scope(seed);
    for (const ProblemClass cls :
         {ProblemClass::SB, ProblemClass::MB, ProblemClass::VV}) {
      expect_serial_equals_parallel("random scope decision", seed,
                                    [&](ThreadPool* pool) {
        DecisionOptions opts;
        opts.pool = pool;
        return decision_summary(
            decide_solvable(*eulerian_decision_problem(), scope, cls, opts));
      });
    }
  }
}

// --- synthesis -------------------------------------------------------------

std::string synthesis_summary(const std::optional<SynthesisResult>& r,
                              const std::vector<PortNumbering>& scope) {
  if (!r) return "unsolvable";
  std::ostringstream os;
  os << "formula=" << r->formula.to_string() << " blocks=" << r->blocks
     << " delta=" << r->delta
     << " class=" << r->machine->algebraic_class().name() << " runs=";
  ExecutionContext ctx;
  for (const PortNumbering& p : scope) {
    const auto run = execute(*r->machine, p, ctx);
    os << run.rounds << ":" << vec_summary(run.outputs_as_ints()) << ";";
  }
  return os.str();
}

TEST(differential_synthesis, LeafInStarWitnessAndMachine) {
  const auto problem = leaf_in_star_problem();
  const std::vector<PortNumbering> scope = star_scope(4);
  for (const ProblemClass cls : {ProblemClass::SV, ProblemClass::VV,
                                 ProblemClass::VB}) {
    expect_serial_equals_parallel("leaf-in-star synthesis",
                                  [&](ThreadPool* pool) {
      DecisionOptions opts;
      opts.pool = pool;
      return synthesis_summary(synthesise_solution(*problem, scope, cls, opts),
                               scope);
    });
  }
}

TEST(differential_synthesis, MachineSolvesEveryNumberingInScope) {
  // The engine cross-check: whatever the (parallel) synthesis produced
  // must actually solve the problem on each scope instance when run by
  // runtime/engine — for every thread count, with reused scratch.
  const auto problem = leaf_in_star_problem();
  const std::vector<PortNumbering> scope = star_scope(4);
  for (const int threads : thread_counts()) {
    ThreadPool pool(threads);
    DecisionOptions opts;
    opts.pool = &pool;
    const auto r = synthesise_solution(*problem, scope, ProblemClass::SV, opts);
    ASSERT_TRUE(r.has_value());
    ExecutionContext ctx;
    for (const PortNumbering& p : scope) {
      const auto run = execute(*r->machine, p, ctx);
      ASSERT_TRUE(run.stopped);
      EXPECT_TRUE(problem->valid(p.graph(), run.outputs_as_ints()))
          << "machine from threads=" << threads << " failed on a scope graph";
    }
  }
}

std::string multi_summary(const std::optional<MultiSynthesisResult>& r,
                          const std::vector<PortNumbering>& scope) {
  if (!r) return "unsolvable";
  std::ostringstream os;
  os << "alphabet=" << vec_summary(r->alphabet) << " blocks=" << r->blocks
     << " delta=" << r->delta << " formulas=";
  for (const Formula& f : r->value_formulas) os << f.to_string() << "|";
  ExecutionContext ctx;
  for (const PortNumbering& p : scope) {
    const auto run = execute(*r->machine, p, ctx);
    os << run.rounds << ":" << vec_summary(run.outputs_as_ints()) << ";";
  }
  return os.str();
}

TEST(differential_synthesis, MultivaluedColouring) {
  const auto problem = three_colouring_problem();
  const std::vector<PortNumbering> scope = {
      PortNumbering::identity(star_graph(3))};
  expect_serial_equals_parallel("3-colouring synthesis",
                                [&](ThreadPool* pool) {
    DecisionOptions opts;
    opts.pool = pool;
    return multi_summary(
        synthesise_multivalued(*problem, scope, ProblemClass::VV, opts),
        scope);
  });
}

// --- solvability -----------------------------------------------------------

std::string report_summary(const SolvabilityReport& r) {
  std::ostringstream os;
  os << "min=" << (r.min_rounds ? std::to_string(*r.min_rounds) : "none")
     << " fix=" << r.fixpoint_rounds << " blocks=" << r.blocks;
  return os.str();
}

TEST(differential_solvability, InstanceTargetsAndReports) {
  const auto problem = odd_odd_problem();
  for (const std::uint64_t seed : seeds_under_test()) {
    Rng rng(seed);
    const Graph g = random_connected_graph(5, 3, 2, rng);
    const PortNumbering p = PortNumbering::random(g, rng);
    // instance_for: the |Y|^n output scan (chunk-ordered reduction).
    expect_serial_equals_parallel("instance_for targets", seed,
                                  [&](ThreadPool* pool) {
      return vec_summary(instance_for(*problem, p, pool).target);
    });
    // analyse_solvability: the fixpoint + min-rounds scans.
    const ScopedInstance inst = instance_for(*problem, p);
    for (const ProblemClass cls :
         {ProblemClass::SB, ProblemClass::MB, ProblemClass::VV}) {
      expect_serial_equals_parallel("solvability report", seed,
                                    [&](ThreadPool* pool) {
        return report_summary(
            analyse_solvability({inst}, cls, g.max_degree(), 16, pool));
      });
    }
  }
}

TEST(differential_solvability, DegenerateRoundBounds) {
  const auto problem = odd_odd_problem();
  const ScopedInstance inst =
      instance_for(*problem, PortNumbering::identity(path_graph(3)));
  for (const int max_rounds : {0, 1}) {
    expect_serial_equals_parallel("tiny round bound", [&](ThreadPool* pool) {
      return report_summary(
          analyse_solvability({inst}, ProblemClass::VV, 2, max_rounds, pool));
    });
  }
}

// --- quotient search -------------------------------------------------------

std::string quotient_summary(const QuotientSearchResult& r) {
  std::ostringstream os;
  os << "scanned=" << r.scanned << " reps=";
  for (std::uint64_t i : r.representatives) os << i << ",";
  os << " fps=";
  // model_fingerprint is the complete canonical key (PR 3), so the
  // summary pins the isomorphism class of every returned model, not
  // merely its refinement class.
  for (const KripkeModel& m : r.models) os << model_fingerprint(m) << "|";
  return os.str();
}

TEST(differential_quotient, ConsistentNumberingFamilies) {
  for (const Graph& g : {path_graph(4), cycle_graph(4), star_graph(3)}) {
    std::vector<PortNumbering> family;
    for_each_consistent_port_numbering(g, [&](const PortNumbering& p) {
      family.push_back(p);
      return true;
    });
    for (const Variant variant : {Variant::PlusPlus, Variant::MinusMinus}) {
      for (const bool graded : {false, true}) {
        expect_serial_equals_parallel("quotient search", [&](ThreadPool* pool) {
          return quotient_summary(search_distinct_quotients(
              family.size(),
              [&](std::uint64_t i) {
                return kripke_from_graph(family[i], variant);
              },
              graded, pool));
        });
      }
    }
  }
}

TEST(differential_quotient, ModelsRoundTripThroughBisimulation) {
  // The models returned by the (parallel) search must be genuine
  // quotients: every state of the source model bisimilar to its image
  // block, and the models already minimal (idempotent minimise).
  const Graph g = cycle_graph(4);
  std::vector<PortNumbering> family;
  for_each_consistent_port_numbering(g, [&](const PortNumbering& p) {
    family.push_back(p);
    return true;
  });
  auto build = [&](std::uint64_t i) {
    return kripke_from_graph(family[i], Variant::PlusPlus);
  };
  for (const int threads : thread_counts()) {
    ThreadPool pool(threads);
    const QuotientSearchResult r =
        search_distinct_quotients(family.size(), build, false, &pool);
    ASSERT_EQ(r.representatives.size(), r.models.size());
    for (std::size_t j = 0; j < r.representatives.size(); ++j) {
      const KripkeModel k = build(r.representatives[j]);
      const Partition p = coarsest_bisimulation(k);
      const KripkeModel& q = r.models[j];
      EXPECT_EQ(q.num_states(), p.num_blocks);
      for (int v = 0; v < k.num_states(); ++v) {
        EXPECT_TRUE(bisimilar_across(k, v, q, p.block[v]))
            << "state " << v << " not bisimilar to its block, threads="
            << threads;
      }
      EXPECT_EQ(minimise(q).num_states(), q.num_states());
    }
  }
}

// --- quotient search: metamorphic properties of the canonical key ----------

/// A seeded family of random Kripke models, the population the
/// metamorphic suites scan. Deterministic per (seed, i).
KripkeModel seeded_model(std::uint64_t seed, std::uint64_t i) {
  Rng rng(seed * 1315423911ULL + i);
  return canontest::random_kripke_model(rng);
}

TEST(differential_quotient, SeededFamilySerialEqualsParallel) {
  // Byte-identical results (witness indices AND canonical fingerprints)
  // at 1, 2 and 8 workers over the seeded random family.
  constexpr std::uint64_t kCount = 30;
  for (const std::uint64_t seed : seeds_under_test()) {
    for (const bool graded : {false, true}) {
      expect_serial_equals_parallel("seeded quotient search", seed,
                                    [&](ThreadPool* pool) {
        return quotient_summary(search_distinct_quotients(
            kCount, [&](std::uint64_t i) { return seeded_model(seed, i); },
            graded, pool));
      });
    }
  }
}

TEST(differential_quotient, CountInvariantUnderRelabelling) {
  // Metamorphic relation: renaming the states of every input model must
  // not change the number of distinct quotients (the key is canonical),
  // and the canonical fingerprint *multiset* of the returned models must
  // be identical — only the representative indices may stay put (they
  // do: relabelling does not reorder the family).
  constexpr std::uint64_t kCount = 30;
  for (const std::uint64_t seed : seeds_under_test()) {
    auto build = [&](std::uint64_t i) { return seeded_model(seed, i); };
    auto build_relabelled = [&](std::uint64_t i) {
      const KripkeModel k = seeded_model(seed, i);
      // An independent permutation per index, deterministic per (seed, i).
      Rng prng(~seed * 2654435761ULL + i);
      return canontest::relabelled_model(
          k, canontest::random_permutation(k.num_states(), prng));
    };
    const QuotientSearchResult plain =
        search_distinct_quotients(kCount, build);
    const QuotientSearchResult relab =
        search_distinct_quotients(kCount, build_relabelled);
    ASSERT_EQ(plain.representatives, relab.representatives)
        << "seed=" << seed;
    ASSERT_EQ(plain.models.size(), relab.models.size());
    for (std::size_t j = 0; j < plain.models.size(); ++j) {
      EXPECT_EQ(model_fingerprint(plain.models[j]),
                model_fingerprint(relab.models[j]))
          << "seed=" << seed << " j=" << j;
    }
  }
}

TEST(differential_quotient, CanonicalCountNeverExceedsRefinementCount) {
  // The search counts isomorphism classes of minimal models exactly: its
  // class count equals the number of distinct canonical keys over every
  // seeded family.
  constexpr std::uint64_t kCount = 40;
  for (const std::uint64_t seed : seeds_under_test()) {
    std::set<std::string> canonical_keys;
    for (std::uint64_t i = 0; i < kCount; ++i) {
      canonical_keys.insert(model_fingerprint(minimise(seeded_model(seed, i))));
    }
    const QuotientSearchResult r = search_distinct_quotients(
        kCount, [&](std::uint64_t i) { return seeded_model(seed, i); });
    EXPECT_EQ(r.representatives.size(), canonical_keys.size())
        << "seed=" << seed;
  }
}

TEST(differential_quotient, StrictDecreaseVersusFingerprintEra) {
  // Relabelled copies are one isomorphism class: over the two-model
  // family {k, relabelled(k)} the search must return exactly one
  // representative, for every pair of a deterministic seeded population
  // (the name recalls an earlier, incomplete key that split such pairs).
  Rng rng(13);
  for (int c = 0; c < 100; ++c) {
    const KripkeModel k = canontest::random_kripke_model(rng);
    const KripkeModel m = canontest::relabelled_model(
        k, canontest::random_permutation(k.num_states(), rng));
    const KripkeModel models[] = {k, m};
    const QuotientSearchResult r = search_distinct_quotients(
        2, [&](std::uint64_t i) { return models[i]; });
    EXPECT_EQ(r.representatives.size(), 1u)
        << "canonical key must merge the relabelled pair, case " << c;
  }
}

// --- covering map search ---------------------------------------------------

std::string covering_summary(const std::optional<std::vector<NodeId>>& phi) {
  return phi ? "phi=" + node_vec_summary(*phi) : "none";
}

TEST(differential_covering, LiftsCoverTheirBase) {
  const PortNumbering base = PortNumbering::symmetric_regular(cycle_graph(6));
  const std::vector<PortNumbering> lifts = {
      double_cover_lift(base).numbering,
      disjoint_copies(base, 2).numbering,
      disjoint_copies(base, 3).numbering,
  };
  for (const PortNumbering& h : lifts) {
    expect_serial_equals_parallel("lift covering search",
                                  [&](ThreadPool* pool) {
      const auto phi = find_covering_map(h, base, pool);
      if (phi) {
        EXPECT_TRUE(is_covering_map(h, base, *phi));
      }
      return covering_summary(phi);
    });
  }
}

TEST(differential_covering, SeededVoltageLifts) {
  for (const std::uint64_t seed : seeds_under_test()) {
    Rng rng(seed);
    const Graph g = random_regular_graph(6, 3, rng);
    const PortNumbering base = PortNumbering::random(g, rng);
    const PortNumbering lift = random_voltage_lift(base, 2, rng).numbering;
    expect_serial_equals_parallel("voltage lift covering", seed,
                                  [&](ThreadPool* pool) {
      const auto phi = find_covering_map(lift, base, pool);
      EXPECT_TRUE(phi.has_value());
      if (phi) {
        EXPECT_TRUE(is_covering_map(lift, base, *phi));
      }
      return covering_summary(phi);
    });
  }
}

TEST(differential_covering, NegativeCasesAgree) {
  const PortNumbering c4 = PortNumbering::identity(cycle_graph(4));
  const PortNumbering p4 = PortNumbering::identity(path_graph(4));
  const PortNumbering star = PortNumbering::identity(star_graph(3));
  const std::vector<std::pair<PortNumbering, PortNumbering>> cases = {
      {p4, c4},    // degree mismatch at the endpoints
      {c4, star},  // wrong structure entirely
      {c4, PortNumbering::identity(cycle_graph(8))},  // too small to cover
  };
  for (const auto& [h, g] : cases) {
    expect_serial_equals_parallel("negative covering search",
                                  [&](ThreadPool* pool) {
      const auto phi = find_covering_map(h, g, pool);
      EXPECT_FALSE(phi.has_value());
      return covering_summary(phi);
    });
  }
}

}  // namespace
}  // namespace wm
