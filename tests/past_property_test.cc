// System-level property fuzzing: a random interleaving of inserts, lookups,
// reclaims, joins, and failures must never break the global invariants:
//   * every live (non-reclaimed) file is retrievable;
//   * the k-closest invariant (replica or valid pointer) holds;
//   * quota accounting balances;
//   * leaf sets match the ground-truth ring.
#include <gtest/gtest.h>

#include <map>

#include "src/harness/experiment.h"
#include "src/past/client.h"

namespace past {
namespace {

class PastPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PastPropertyTest, RandomOperationSequencePreservesInvariants) {
  const uint64_t seed = GetParam();
  PastConfig config;
  config.k = 4;
  config.enable_maintenance = true;
  TestDeployment deployment = BuildDeployment(50, 80'000'000, config, seed);
  PastNetwork& network = *deployment.network;
  PastClient client(network, deployment.node_ids[0], 1ull << 50, seed + 1);

  Rng rng(seed + 2);
  std::map<std::string, FileId> live_files;
  int next_file = 0;

  for (int step = 0; step < 400; ++step) {
    double p = rng.NextDouble();
    if (p < 0.5) {
      // Insert a new file.
      std::string name = "fuzz-" + std::to_string(next_file++);
      uint64_t size = 500 + rng.NextBelow(50'000);
      ClientInsertResult r = client.Insert(name, size);
      if (r.stored) {
        live_files[name] = r.file_id;
      }
    } else if (p < 0.7 && !live_files.empty()) {
      // Lookup a random live file.
      auto it = live_files.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(live_files.size())));
      LookupResult r = client.Lookup(it->second);
      EXPECT_TRUE(r.found()) << it->first;
    } else if (p < 0.8 && !live_files.empty()) {
      // Reclaim a random file.
      auto it = live_files.begin();
      std::advance(it, static_cast<long>(rng.NextBelow(live_files.size())));
      ReclaimResult r = client.Reclaim(it->second);
      EXPECT_TRUE(r.accepted());
      live_files.erase(it);
    } else if (p < 0.9) {
      // A new node joins.
      network.AddStorageNode(80'000'000);
    } else {
      // A node fails (keep the overlay comfortably larger than l).
      std::vector<NodeId> nodes = network.overlay().live_nodes();
      if (nodes.size() > 40) {
        NodeId victim = nodes[rng.NextBelow(nodes.size())];
        if (victim != client.access_node()) {
          network.FailStorageNode(victim);
        }
      }
    }
  }

  // Final audit.
  EXPECT_EQ(network.overlay().CountLeafSetViolations(), 0u);
  std::vector<FileId> ids;
  for (const auto& [name, id] : live_files) {
    (void)name;
    ids.push_back(id);
  }
  EXPECT_EQ(network.CountStorageInvariantViolations(ids), 0u);
  EXPECT_EQ(network.metrics().Snapshot().CounterValue("past.maintenance.files_lost"), 0u);
  for (const auto& [name, id] : live_files) {
    EXPECT_TRUE(client.Lookup(id).found()) << name;
  }
  // Utilization accounting is exact: the incremental total matches a scan.
  uint64_t scanned = 0;
  for (const NodeId& id : network.overlay().live_nodes()) {
    scanned += network.storage_node(id)->store().used();
  }
  EXPECT_EQ(scanned, network.total_stored());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PastPropertyTest,
                         ::testing::Values(1001, 2002, 3003, 4004, 5005, 6006));

}  // namespace
}  // namespace past
