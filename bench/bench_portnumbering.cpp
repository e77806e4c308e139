// Regenerates Figures 1, 2, 3, 4 and 6: the example graph of the paper
// with a general and a consistent port numbering, the three inbox views
// (vector / multiset / set), the two send modes, and the per-class
// information table.
#include <cstdio>
#include <iostream>

#include "graph/generators.hpp"
#include "port/port_numbering.hpp"
#include "runtime/engine.hpp"
#include "util/value.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  const int threads = wm::benchutil::parse_threads(argc, argv);
  const wm::benchutil::Timer wm_total;

  using namespace wm;

  // The 4-node example graph of Figure 1: degrees 3, 2, 2, 1.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 2);

  std::printf("=== Figure 1: a (general) port numbering ===\n");
  Rng rng(42);
  const PortNumbering general = PortNumbering::random(g, rng);
  std::cout << general.to_string() << "\n";
  std::printf("consistent: %s\n\n", general.is_consistent() ? "yes" : "no");

  std::printf("=== Figure 2: a consistent port numbering ===\n");
  const PortNumbering consistent = PortNumbering::random_consistent(g, rng);
  std::cout << consistent.to_string() << "\n";
  std::printf("p(p(x)) = x for every port: %s\n\n",
              consistent.is_consistent() ? "yes" : "no");

  std::printf("=== Figure 3: vector vs multiset vs set inbox ===\n");
  const Value a = Value::str("a"), b = Value::str("b");
  const ValueVec inbox{a, b, a};
  std::cout << "received (a, b, a):\n";
  std::cout << "  Vector   sees " << Value::tuple(inbox) << "\n";
  std::cout << "  Multiset sees " << multiset_of(inbox) << "\n";
  std::cout << "  Set      sees " << set_of(inbox) << "\n\n";

  std::printf("=== Figure 4: vector vs broadcast send ===\n");
  std::printf("  Vector:    node may send m1, m2, m3 to ports 1, 2, 3\n");
  std::printf("  Broadcast: the engine calls mu once and replicates m to "
              "all ports\n\n");

  std::printf("=== Figure 6: information available per class ===\n");
  std::printf("  %-5s %-28s %-28s\n", "class", "outgoing", "incoming");
  std::printf("  %-5s %-28s %-28s\n", "VVc", "numbered ports (involution)",
              "numbered ports (involution)");
  std::printf("  %-5s %-28s %-28s\n", "VV", "numbered ports",
              "numbered ports");
  std::printf("  %-5s %-28s %-28s\n", "MV", "numbered ports",
              "multiset of messages");
  std::printf("  %-5s %-28s %-28s\n", "SV", "numbered ports",
              "set of messages");
  std::printf("  %-5s %-28s %-28s\n", "VB", "single broadcast",
              "numbered ports");
  std::printf("  %-5s %-28s %-28s\n", "MB", "single broadcast",
              "multiset of messages");
  std::printf("  %-5s %-28s %-28s\n", "SB", "single broadcast",
              "set of messages");

  std::printf("\nlocal types t(v) under the consistent numbering "
              "(Theorem 17):\n");
  for (int v = 0; v < g.num_nodes(); ++v) {
    WM_SCOPE("bench.portnumbering.local_type");
    const auto t = consistent.local_type(v, g.max_degree());
    std::printf("  t(%d) = (", v);
    for (std::size_t i = 0; i < t.size(); ++i) {
      std::printf("%s%d", i ? "," : "", t[i]);
    }
    std::printf(")\n");
  }
  wm::benchutil::report_phase("total", wm_total.ms());
  wm::benchutil::write_bench_json("portnumbering", 4, threads, wm_total.ms(), 0);
  return 0;
}
