// Content distribution scenario: a popular file is published once and then
// fetched by clients all over the overlay. Route-side GreedyDual-Size
// caching (paper section 4) spreads copies toward the consumers, balancing
// query load and shrinking fetch distance well below the no-cache baseline.
#include <cstdio>
#include <map>
#include <vector>

#include "src/past/client.h"
#include "src/past/past_network.h"

namespace {

struct RunStats {
  double avg_hops_first_wave = 0.0;
  double avg_hops_last_wave = 0.0;
  double cache_hit_rate = 0.0;
  size_t distinct_servers = 0;
};

RunStats Run(past::CacheMode mode) {
  using namespace past;
  PastConfig config;
  config.k = 5;
  config.cache_mode = mode;

  PastryConfig pastry_config;
  PastNetwork network(config, pastry_config, /*seed=*/88);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 200; ++i) {
    nodes.push_back(network.AddStorageNode(20'000'000));
  }

  // Publish one 64 KB file.
  PastClient publisher(network, nodes[0], 1ull << 40, 5);
  ClientInsertResult published = publisher.Insert("viral-video.mpg", 64'000);
  if (!published.stored) {
    std::printf("publish failed\n");
    return {};
  }

  // Five waves of fetches from every 4th node in the overlay.
  std::map<std::string, int> served_by;
  double first_wave_hops = 0.0, last_wave_hops = 0.0;
  int first_wave_count = 0, last_wave_count = 0;
  const int waves = 5;
  for (int wave = 0; wave < waves; ++wave) {
    for (size_t i = 0; i < nodes.size(); i += 4) {
      publisher.set_access_node(nodes[i]);
      LookupResult r = publisher.Lookup(published.file_id);
      if (!r.found()) {
        continue;
      }
      ++served_by[r.served_by.ToHex().substr(0, 8)];
      if (wave == 0) {
        first_wave_hops += r.hops;
        ++first_wave_count;
      }
      if (wave == waves - 1) {
        last_wave_hops += r.hops;
        ++last_wave_count;
      }
    }
  }

  RunStats stats;
  stats.avg_hops_first_wave = first_wave_hops / std::max(first_wave_count, 1);
  stats.avg_hops_last_wave = last_wave_hops / std::max(last_wave_count, 1);
  const obs::MetricsSnapshot m = network.metrics().Snapshot();
  const uint64_t found = m.CounterValue("past.lookup.found");
  stats.cache_hit_rate =
      found == 0 ? 0.0
                 : static_cast<double>(m.CounterValue("past.lookup.cache_hits")) /
                       static_cast<double>(found);
  stats.distinct_servers = served_by.size();
  return stats;
}

}  // namespace

int main() {
  std::printf("content distribution of one popular file, 250 fetches\n\n");
  std::printf("%-10s %14s %14s %10s %16s\n", "cache", "hops (wave 1)", "hops (wave 5)",
              "hit rate", "distinct servers");
  struct Row {
    const char* name;
    past::CacheMode mode;
  };
  for (const Row& row : {Row{"none", past::CacheMode::kNone}, Row{"LRU", past::CacheMode::kLru},
                         Row{"GD-S", past::CacheMode::kGreedyDualSize}}) {
    RunStats s = Run(row.mode);
    std::printf("%-10s %14.2f %14.2f %9.1f%% %16zu\n", row.name, s.avg_hops_first_wave,
                s.avg_hops_last_wave, s.cache_hit_rate * 100.0, s.distinct_servers);
  }
  std::printf("\nwith caching enabled, later waves are served from copies near the\n"
              "clients: fetch distance drops and the query load spreads over many\n"
              "more nodes than the k=5 replica holders.\n");
  return 0;
}
