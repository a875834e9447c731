// Reproduces the paper's absolute latency datapoint (section 5.2): "retrieving
// a 1 KB file from a node one Pastry hop away on a LAN takes approximately
// 25 ms", and extends it into full lookup-latency distributions under LAN
// and WAN assumptions, with and without caching.
//
// Latencies come from the message fabric: every network is run over a
// SimTransport, so each lookup's latency is the simulated delivery time of
// its actual request + fetch-reply exchange (LookupResult::latency_ms), not
// a formula applied after the fact.
#include <algorithm>

#include "bench/bench_common.h"
#include "src/net/latency_model.h"
#include "src/past/client.h"
#include "src/sim/event_queue.h"

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  size_t n = static_cast<size_t>(cli.GetInt("--nodes", 500));
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("--seed", 42));
  cli.ExitOnUnknownFlags();

  std::printf("# Lookup latency (section 5.2), %zu nodes\n\n", n);

  // The headline datapoint, measured through the fabric: a 2-node network,
  // the file one hop from the origin, 1 KB payload, LAN latency model.
  {
    PastConfig config;
    config.k = 1;
    config.cache_mode = CacheMode::kNone;
    PastryConfig pastry_config;
    PastNetwork network(config, pastry_config, seed);
    NodeId a = network.AddStorageNode(100'000'000);
    NodeId b = network.AddStorageNode(100'000'000);
    EventQueue queue;
    SimTransport::Options options;
    options.latency = LatencyModel::Lan();
    options.seed = seed;
    network.UseSimTransport(queue, options);

    PastClient client(network, a, 1ull << 30, seed + 1);
    ClientInsertResult ins = client.InsertContent("headline.bin", std::string(1024, 'x'));
    double headline = 0.0;
    if (ins.stored) {
      // Fetch from whichever node is NOT holding the replica, so the
      // exchange crosses one hop.
      NodeId holder = network.storage_node(a) != nullptr &&
                              network.storage_node(a)->store().HasReplica(ins.file_id)
                          ? a
                          : b;
      NodeId origin = holder == a ? b : a;
      client.set_access_node(origin);
      LookupResult r = client.Lookup(ins.file_id);
      if (r.found()) {
        headline = r.latency_ms;
      }
    }
    std::printf("1 KB file, one hop away, LAN model: %.1f ms (paper: ~25 ms)\n\n", headline);
  }

  struct Config {
    const char* name;
    CacheMode mode;
    LatencyModel model;
  };
  for (const Config& cfg : {Config{"LAN, no cache", CacheMode::kNone, LatencyModel::Lan()},
                            Config{"LAN, GD-S cache", CacheMode::kGreedyDualSize,
                                   LatencyModel::Lan()},
                            Config{"WAN, no cache", CacheMode::kNone, LatencyModel::Wan()},
                            Config{"WAN, GD-S cache", CacheMode::kGreedyDualSize,
                                   LatencyModel::Wan()}}) {
    PastConfig config;
    config.k = 5;
    config.cache_mode = cfg.mode;
    PastryConfig pastry_config;
    PastNetwork network(config, pastry_config, seed);
    std::vector<NodeId> nodes;
    for (size_t i = 0; i < n; ++i) {
      nodes.push_back(network.AddStorageNode(100'000'000));
    }
    EventQueue queue;
    SimTransport::Options options;
    options.latency = cfg.model;
    options.seed = seed;
    network.UseSimTransport(queue, options);
    PastClient client(network, nodes[0], 1ull << 50, seed + 1);
    Rng rng(seed + 2);

    // Insert 200 x 1 KB files, then fetch each from 10 random origins.
    std::vector<FileId> files;
    for (int i = 0; i < 200; ++i) {
      ClientInsertResult r = client.Insert("lat-" + std::to_string(i), 1024);
      if (r.stored) {
        files.push_back(r.file_id);
      }
    }
    std::vector<double> latencies;
    for (const FileId& f : files) {
      for (int i = 0; i < 10; ++i) {
        client.set_access_node(nodes[rng.NextBelow(nodes.size())]);
        LookupResult r = client.Lookup(f);
        if (r.found()) {
          latencies.push_back(r.latency_ms);
        }
      }
    }
    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double q) {
      return latencies[static_cast<size_t>(q * static_cast<double>(latencies.size() - 1))];
    };
    double mean = 0.0;
    for (double v : latencies) {
      mean += v;
    }
    mean /= static_cast<double>(latencies.size());
    std::printf("%-16s mean %7.1f ms   p50 %7.1f   p90 %7.1f   p99 %7.1f\n", cfg.name, mean,
                pct(0.5), pct(0.9), pct(0.99));
  }
  std::printf("\n# caching cuts both the hop count and (on WAN) the propagation term;\n"
              "# the paper notes its 25 ms prototype figure is unoptimized.\n");
  PrintBenchFooter(stopwatch);
  return 0;
}
