// Overlay substrate comparison: Pastry vs Chord (paper sections 2.1 and 6).
//
// The PAST paper argues it could be layered over Chord, but that Pastry's
// proximity-aware routing tables give it better network locality ("Chord
// makes no explicit effort to achieve good network locality"). This bench
// quantifies both claims on identical topologies: lookup hop counts are
// comparable (both O(log N)), while Pastry's per-hop and total proximity
// distances are much shorter.
#include <cmath>

#include "bench/bench_common.h"
#include "src/chord/chord_network.h"
#include "src/pastry/network.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("--seed", 42));
  cli.ExitOnUnknownFlags();
  const int trials = 1000;

  std::printf("# Overlay comparison: Pastry (b=4, l=32) vs Chord (r=8 successors)\n");
  std::printf("# %d random lookups per configuration; distance = proximity metric\n\n", trials);

  TablePrinter table({"N", "Overlay", "Avg hops", "log bound", "Avg route distance",
                      "Distance vs random pair"});
  for (int64_t n : {200, 500, 1000}) {
    // Shared random-pair baseline requires a metric; each overlay has its
    // own topology, so compute the baseline per overlay.
    {
      PastryConfig config;
      PastryNetwork network(config, seed);
      network.BuildInitialNetwork(static_cast<size_t>(n));
      Rng rng(seed + 1);
      std::vector<NodeId> nodes = network.live_nodes();
      double hops = 0.0, distance = 0.0, random_distance = 0.0;
      for (int i = 0; i < trials; ++i) {
        NodeId key(rng.NextU64(), rng.NextU64());
        RouteResult route = network.Route(nodes[rng.NextBelow(nodes.size())], key);
        hops += route.hops();
        distance += route.distance;
        NodeId a = nodes[rng.NextBelow(nodes.size())];
        NodeId b = nodes[rng.NextBelow(nodes.size())];
        if (a != b) {
          random_distance += network.topology().Distance(a, b);
        }
      }
      table.AddRow({std::to_string(n), "Pastry", TablePrinter::Num(hops / trials, 2),
                    TablePrinter::Num(std::ceil(std::log(static_cast<double>(n)) / std::log(16.0)), 0),
                    TablePrinter::Num(distance / trials, 3),
                    TablePrinter::Num(distance / random_distance, 2) + "x"});
    }
    {
      ChordNetwork network(8, seed);
      network.BuildInitialNetwork(static_cast<size_t>(n));
      Rng rng(seed + 1);
      std::vector<NodeId> nodes = network.live_nodes();
      double hops = 0.0, distance = 0.0, random_distance = 0.0;
      for (int i = 0; i < trials; ++i) {
        NodeId key(rng.NextU64(), rng.NextU64());
        ChordRouteResult route =
            network.FindSuccessor(nodes[rng.NextBelow(nodes.size())], key);
        hops += route.hops();
        distance += route.distance;
        NodeId a = nodes[rng.NextBelow(nodes.size())];
        NodeId b = nodes[rng.NextBelow(nodes.size())];
        if (a != b) {
          random_distance += network.topology().Distance(a, b);
        }
      }
      table.AddRow({std::to_string(n), "Chord", TablePrinter::Num(hops / trials, 2),
                    TablePrinter::Num(std::ceil(std::log2(static_cast<double>(n)) / 2.0), 0),
                    TablePrinter::Num(distance / trials, 3),
                    TablePrinter::Num(distance / random_distance, 2) + "x"});
    }
    std::fflush(stdout);
  }
  table.Print();
  std::printf("\n# expected: similar O(log N) hop counts; Pastry's total route distance a\n"
              "# fraction of Chord's (locality-aware routing table entries), relative to\n"
              "# the random-pair distance baseline.\n");
  PrintBenchFooter(stopwatch);
  return 0;
}
