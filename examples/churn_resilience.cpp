// Churn resilience scenario: a PAST deployment under continuous node arrival
// and departure. Demonstrates Pastry's self-organization (leaf-set repair,
// keep-alive detection of silent failures) and PAST's replica maintenance:
// files stay at k replicas and remain retrievable throughout.
#include <cstdio>
#include <vector>

#include "src/common/rng.h"
#include "src/past/client.h"
#include "src/past/past_network.h"

int main() {
  using namespace past;

  PastConfig config;
  config.k = 5;
  config.enable_maintenance = true;

  PastryConfig pastry_config;
  PastNetwork network(config, pastry_config, /*seed=*/404);
  for (int i = 0; i < 150; ++i) {
    network.AddStorageNode(80'000'000);
  }

  std::vector<NodeId> nodes = network.overlay().live_nodes();
  PastClient client(network, nodes[0], 1ull << 40, 9);
  std::vector<FileId> files;
  for (int i = 0; i < 150; ++i) {
    ClientInsertResult r = client.Insert("data-" + std::to_string(i), 10'000 + i * 100);
    if (r.stored) {
      files.push_back(r.file_id);
    }
  }
  std::printf("stored %zu files on %zu nodes\n\n", files.size(),
              network.overlay().live_count());
  std::printf("%-6s %-7s %-7s %-10s %-11s %-10s\n", "round", "joins", "fails", "nodes",
              "retrievable", "violations");

  Rng rng(2718);
  for (int round = 1; round <= 10; ++round) {
    int joins = 0, fails = 0;
    for (int step = 0; step < 12; ++step) {
      double p = rng.NextDouble();
      std::vector<NodeId> live = network.overlay().live_nodes();
      if (p < 0.45) {
        network.AddStorageNode(80'000'000);
        ++joins;
      } else if (p < 0.85 && live.size() > 100) {
        // Abrupt failure, immediately detected by neighbors.
        network.FailStorageNode(live[rng.NextBelow(live.size())]);
        ++fails;
      } else if (live.size() > 100) {
        // Silent failure: only the next keep-alive round notices.
        network.overlay().FailNodeSilently(live[rng.NextBelow(live.size())]);
        network.overlay().DetectAndRepair();
        ++fails;
      }
    }
    // Audit: every file retrievable, storage invariant intact.
    size_t retrievable = 0;
    client.set_access_node(network.overlay().live_nodes().front());
    for (const FileId& f : files) {
      if (client.Lookup(f).found()) {
        ++retrievable;
      }
    }
    size_t violations = network.CountStorageInvariantViolations(files);
    std::printf("%-6d %-7d %-7d %-10zu %zu/%-9zu %-10zu\n", round, joins, fails,
                network.overlay().live_count(), retrievable, files.size(), violations);
  }

  const obs::MetricsSnapshot m = network.metrics().Snapshot();
  auto count = [&m](const char* name) {
    return static_cast<unsigned long long>(m.CounterValue(name));
  };
  std::printf("\nmaintenance re-created %llu replicas, installed %llu pointers; "
              "%llu files lost\n",
              count("past.maintenance.replicas_recreated"),
              count("past.maintenance.pointers_installed"), count("past.maintenance.files_lost"));
  std::printf("leaf-set invariant violations: %zu\n",
              network.overlay().CountLeafSetViolations());
  return 0;
}
