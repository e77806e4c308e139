// Regenerates the Section 3.3 application claim: a non-trivial graph
// problem — 2-approximate vertex cover — solvable without any port
// numbers (class MB), built from a VB algorithm plus the MB(1) = VB(1)
// collapse (Theorem 9).
//
// Table: per graph family, the approximation ratio of the distributed
// fractional-packing cover vs the exact branch-and-bound optimum, and
// the round count.
#include <cstdio>

#include "algorithms/machines.hpp"
#include "graph/exact.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "port/port_numbering.hpp"
#include "runtime/engine.hpp"
#include "transform/simulations.hpp"
#include "bench_util.hpp"

namespace {

using namespace wm;

void row(const char* name, const Graph& g, const StateMachine& m, Rng& rng) {
  WM_SCOPE("bench.vertex_cover.row");
  const PortNumbering p = PortNumbering::random(g, rng);
  const ExecutionResult r = execute(m, p);
  if (!r.stopped) {
    std::printf("%-22s DID NOT STOP\n", name);
    return;
  }
  const auto out = r.outputs_as_ints();
  int size = 0;
  for (int v : out) size += v;
  const int opt = minimum_vertex_cover_size(g);
  std::printf("%-22s %-5d %-5d %-6d %-6d %-8.3f %-7d %s\n", name,
              g.num_nodes(), g.num_edges(), opt, size,
              opt ? static_cast<double>(size) / opt : 1.0, r.rounds,
              is_vertex_cover(g, out) ? "cover" : "NOT A COVER");
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = wm::benchutil::parse_threads(argc, argv);
  const wm::benchutil::Timer wm_total;

  std::printf("=== Section 3.3: 2-approx vertex cover in MB = VB ===\n\n");
  const auto mb = to_multiset_machine(vertex_cover_packing_vb_machine());
  std::printf("machine: VB fractional edge packing wrapped by Theorem 9 "
              "-> class %s\n\n",
              mb->algebraic_class().name().c_str());
  std::printf("%-22s %-5s %-5s %-6s %-6s %-8s %-7s %s\n", "graph", "n", "m",
              "OPT", "|C|", "ratio", "rounds", "check");
  Rng rng(7);
  row("path-12", path_graph(12), *mb, rng);
  row("cycle-12", cycle_graph(12), *mb, rng);
  row("star-12", star_graph(12), *mb, rng);
  row("complete-8", complete_graph(8), *mb, rng);
  row("petersen", petersen_graph(), *mb, rng);
  row("grid-4x4", grid_graph(4, 4), *mb, rng);
  row("hypercube-4", hypercube(4), *mb, rng);
  row("bipartite-5x5", complete_bipartite(5, 5), *mb, rng);
  row("fig9a", fig9a_graph(), *mb, rng);
  for (int i = 0; i < 5; ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "random-16-d4 #%d", i);
    row(name, random_connected_graph(16, 4, 8, rng), *mb, rng);
  }
  std::printf("\nShape check (paper): ratio <= 2.000 on every instance;\n");
  std::printf("no port numbers consulted (Multiset∩Broadcast class).\n");
  wm::benchutil::report_phase("total", wm_total.ms());
  wm::benchutil::write_bench_json("vertex_cover", 8, threads, wm_total.ms(), 0);
  return 0;
}
