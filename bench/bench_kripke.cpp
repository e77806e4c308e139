// Regenerates Figure 7 and Table 3: the four Kripke views
// K_{+,+}, K_{-,+}, K_{+,-}, K_{-,-} of one port-numbered graph, with
// the relation contents R(i,j), R(i,*), R(*,j), R(*,*), and the
// correspondence table between modal logic and distributed algorithms.
#include <cstdio>
#include <iostream>

#include "graph/generators.hpp"
#include "logic/kripke.hpp"
#include "port/port_numbering.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  const int threads = wm::benchutil::parse_threads(argc, argv);
  const wm::benchutil::Timer wm_total;

  using namespace wm;

  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  Rng rng(42);
  const PortNumbering p = PortNumbering::random(g, rng);
  std::cout << "graph + numbering:\n" << p.to_string() << "\n\n";

  std::printf("=== Figure 7: the accessibility relations ===\n");
  for (const Variant variant : {Variant::PlusPlus, Variant::MinusPlus,
                                Variant::PlusMinus, Variant::MinusMinus}) {
    WM_SCOPE("bench.kripke.variant");
    const KripkeModel k = kripke_from_graph(p, variant);
    std::printf("\n%s:\n", variant_name(variant).c_str());
    for (const Modality& alpha : k.modalities()) {
      bool any = false;
      std::printf("  R%s:", alpha.to_string().c_str());
      for (int v = 0; v < k.num_states(); ++v) {
        for (int w : k.successors(alpha, v)) {
          std::printf(" %d->%d", v, w);
          any = true;
        }
      }
      std::printf("%s\n", any ? "" : " (empty)");
    }
  }

  std::printf("\n=== Table 3: modal logic <-> distributed algorithms ===\n");
  std::printf("  %-34s %-34s\n", "Modal logic", "Distributed algorithms");
  std::printf("  %-34s %-34s\n", "Kripke model K=(W,(R_a),tau)",
              "input graph G + port numbering p");
  std::printf("  %-34s %-34s\n", "states W", "nodes V");
  std::printf("  %-34s %-34s\n", "relations R_a", "edges E + port numbering");
  std::printf("  %-34s %-34s\n", "valuation tau / props q_i",
              "node degrees (initial state)");
  std::printf("  %-34s %-34s\n", "formula phi", "algorithm A");
  std::printf("  %-34s %-34s\n", "phi true in state v",
              "A outputs 1 at node v");
  std::printf("  %-34s %-34s\n", "modal depth of phi", "running time of A");
  wm::benchutil::report_phase("total", wm_total.ms());
  wm::benchutil::write_bench_json("kripke", 4, threads, wm_total.ms(), 0);
  return 0;
}
