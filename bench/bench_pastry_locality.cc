// Pastry locality properties cited in section 2.1 of the PAST paper (from
// the Pastry paper [27]):
//   * the proximity distance a message travels is only ~50% above the direct
//     source-destination distance;
//   * among k=5 replicas, the lookup tends to reach the replica nearest the
//     client first (the paper reports 76% nearest, 92% within best-two).
#include <algorithm>

#include "bench/bench_common.h"
#include "src/past/client.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  size_t n = static_cast<size_t>(cli.GetInt("--nodes", 1000));
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("--seed", 42));
  cli.ExitOnUnknownFlags();

  std::printf("# Pastry locality (section 2.1 / [27]): route stretch and nearest-replica\n");
  std::printf("# selection, %zu nodes\n\n", n);

  // Part 1: route stretch — routed proximity distance / direct distance.
  {
    PastryConfig config;
    PastryNetwork network(config, seed);
    network.BuildInitialNetwork(n);
    Rng rng(seed + 1);
    std::vector<NodeId> nodes = network.live_nodes();
    double stretch_sum = 0.0;
    int trials = 2000;
    int counted = 0;
    for (int i = 0; i < trials; ++i) {
      NodeId origin = nodes[rng.NextBelow(nodes.size())];
      NodeId key(rng.NextU64(), rng.NextU64());
      RouteResult route = network.Route(origin, key);
      if (route.hops() == 0) {
        continue;
      }
      double direct = network.topology().Distance(origin, route.destination());
      if (direct <= 1e-9) {
        continue;
      }
      stretch_sum += route.distance / direct;
      ++counted;
    }
    std::printf("route stretch: %.2fx the direct source-destination distance "
                "(paper [27]: ~1.5x)\n",
                stretch_sum / counted);
  }

  // Part 2: which of the k=5 replicas does a lookup reach first?
  {
    PastConfig config;
    config.k = 5;
    PastryConfig pastry_config;
    PastNetwork network(config, pastry_config, seed + 2);
    std::vector<NodeId> nodes;
    for (size_t i = 0; i < n; ++i) {
      nodes.push_back(network.AddStorageNode(100'000'000));
    }
    PastClient client(network, nodes[0], 1ull << 50, seed + 3);
    Rng rng(seed + 4);

    int nearest = 0, best_two = 0, total = 0;
    for (int f = 0; f < 300; ++f) {
      ClientInsertResult ins = client.Insert("loc-" + std::to_string(f), 1000);
      if (!ins.stored) {
        continue;
      }
      // Rank the replica holders by proximity to a random client node.
      NodeId origin = nodes[rng.NextBelow(nodes.size())];
      std::vector<NodeId> holders =
          network.overlay().KClosestLive(ins.file_id.ToRoutingKey(), 5);
      std::sort(holders.begin(), holders.end(), [&](const NodeId& a, const NodeId& b) {
        return network.overlay().topology().Distance(origin, a) <
               network.overlay().topology().Distance(origin, b);
      });
      client.set_access_node(origin);
      LookupResult r = client.Lookup(ins.file_id);
      client.set_access_node(nodes[0]);
      if (!r.found()) {
        continue;
      }
      ++total;
      auto rank = std::find(holders.begin(), holders.end(), r.served_by) - holders.begin();
      if (rank == 0) {
        ++nearest;
      }
      if (rank <= 1) {
        ++best_two;
      }
    }
    std::printf("lookups served by the proximally nearest replica: %.0f%% "
                "(paper [27]: 76%%)\n",
                100.0 * nearest / total);
    std::printf("lookups served by one of the two nearest replicas: %.0f%% "
                "(paper [27]: 92%%)\n",
                100.0 * best_two / total);
  }
  PrintBenchFooter(stopwatch);
  return 0;
}
