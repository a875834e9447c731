// Replica maintenance under churn (paper section 3.5): the k-closest
// invariant must be restored after joins and failures, and replicas must be
// re-created when holders die.
#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/past/client.h"

namespace past {
namespace {

class PastMaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PastConfig config;
    config.k = 5;
    config.enable_maintenance = true;
    deployment_ = BuildDeployment(60, 50'000'000, config, 130);
    client_ = std::make_unique<PastClient>(*deployment_.network, deployment_.node_ids[0],
                                           1ull << 50, 131);
    for (int i = 0; i < 100; ++i) {
      ClientInsertResult r = client_->Insert("m-" + std::to_string(i), 4000 + i);
      ASSERT_TRUE(r.stored);
      files_.push_back(r.file_id);
    }
  }

  PastNetwork& network() { return *deployment_.network; }

  TestDeployment deployment_;
  std::unique_ptr<PastClient> client_;
  std::vector<FileId> files_;
};

TEST_F(PastMaintenanceTest, InvariantHoldsAfterSingleFailure) {
  network().FailStorageNode(deployment_.node_ids[10]);
  EXPECT_EQ(network().CountStorageInvariantViolations(files_), 0u);
  for (const FileId& f : files_) {
    EXPECT_GE(network().CountLiveReplicas(f), 5u) << f.ToHex();
  }
  EXPECT_EQ(network().metrics().Snapshot().CounterValue("past.maintenance.files_lost"), 0u);
}

TEST_F(PastMaintenanceTest, InvariantHoldsAfterJoin) {
  for (int i = 0; i < 10; ++i) {
    network().AddStorageNode(50'000'000);
  }
  EXPECT_EQ(network().CountStorageInvariantViolations(files_), 0u);
}

TEST_F(PastMaintenanceTest, InvariantHoldsUnderMixedChurn) {
  Rng rng(132);
  for (int round = 0; round < 25; ++round) {
    if (rng.NextBool(0.5)) {
      network().AddStorageNode(50'000'000);
    } else {
      std::vector<NodeId> live = network().overlay().live_nodes();
      if (live.size() > 30) {
        network().FailStorageNode(live[rng.NextBelow(live.size())]);
      }
    }
  }
  EXPECT_EQ(network().CountStorageInvariantViolations(files_), 0u);
  EXPECT_EQ(network().metrics().Snapshot().CounterValue("past.maintenance.files_lost"), 0u);
  // All files still retrievable.
  for (const FileId& f : files_) {
    EXPECT_TRUE(client_->Lookup(f).found()) << f.ToHex();
  }
}

TEST_F(PastMaintenanceTest, ReplicasRecreatedAfterHolderFails) {
  // Kill every current holder of one file, one at a time; maintenance should
  // re-create replicas on surviving nodes each time.
  FileId target = files_[0];
  for (int round = 0; round < 3; ++round) {
    NodeId victim;
    bool found = false;
    for (const NodeId& id : network().overlay().live_nodes()) {
      const PastNode* node = network().storage_node(id);
      if (node != nullptr && node->store().HasReplica(target)) {
        victim = id;
        found = true;
        break;
      }
    }
    ASSERT_TRUE(found);
    network().FailStorageNode(victim);
    EXPECT_GE(network().CountLiveReplicas(target), 5u) << "round " << round;
  }
  EXPECT_GT(network().metrics().Snapshot().CounterValue("past.maintenance.replicas_recreated"), 0u);
  EXPECT_TRUE(client_->Lookup(target).found());
}

TEST_F(PastMaintenanceTest, FileSurvivesFailuresUpToKMinusOneHolders) {
  FileId target = files_[1];
  // Fail k-1 = 4 holders in one burst (detected one by one).
  int killed = 0;
  for (const NodeId& id : network().overlay().live_nodes()) {
    if (killed == 4) {
      break;
    }
    const PastNode* node = network().storage_node(id);
    if (node != nullptr && node->store().HasReplica(target)) {
      network().FailStorageNode(id);
      ++killed;
    }
  }
  EXPECT_EQ(killed, 4);
  EXPECT_TRUE(client_->Lookup(target).found());
  EXPECT_GE(network().CountLiveReplicas(target), 5u);
}

TEST(PastMaintenanceSilentTest, KeepAliveDetectionTriggersRepair) {
  PastConfig config;
  config.k = 3;
  config.enable_maintenance = true;
  TestDeployment deployment = BuildDeployment(40, 50'000'000, config, 133);
  PastNetwork& network = *deployment.network;
  PastClient client(network, deployment.node_ids[0], 1ull << 50, 134);
  std::vector<FileId> files;
  for (int i = 0; i < 40; ++i) {
    ClientInsertResult r = client.Insert("s-" + std::to_string(i), 2000);
    ASSERT_TRUE(r.stored);
    files.push_back(r.file_id);
  }
  // Silent failure: PAST notices only once Pastry's keep-alive detects it.
  network.overlay().FailNodeSilently(deployment.node_ids[5]);
  network.overlay().DetectAndRepair();
  EXPECT_EQ(network.CountStorageInvariantViolations(files), 0u);
  for (const FileId& f : files) {
    EXPECT_GE(network.CountLiveReplicas(f), 3u);
  }
}

TEST(PastMaintenanceDisabledTest, NoRepairWhenDisabled) {
  PastConfig config;
  config.k = 3;
  config.enable_maintenance = false;
  TestDeployment deployment = BuildDeployment(30, 50'000'000, config, 135);
  PastNetwork& network = *deployment.network;
  PastClient client(network, deployment.node_ids[0], 1ull << 50, 136);
  ClientInsertResult r = client.Insert("unrepaired", 2000);
  ASSERT_TRUE(r.stored);
  // Fail one holder: with maintenance off the replica count drops.
  for (const NodeId& id : network.overlay().live_nodes()) {
    const PastNode* node = network.storage_node(id);
    if (node != nullptr && node->store().HasReplica(r.file_id)) {
      network.FailStorageNode(id);
      break;
    }
  }
  EXPECT_EQ(network.CountLiveReplicas(r.file_id), 2u);
}

// A node that fails and rejoins under its old id must rebuild a full leaf
// set. Other nodes still hold routing-table entries for that id; if the id
// were live again before the join message is routed, those entries would
// steer the route to the joining node itself, which would copy its own empty
// leaf set and then claim keys far from its id.
TEST(PastRejoinTest, RejoinedNodeRebuildsItsLeafSet) {
  PastConfig config;
  config.enable_maintenance = true;
  PastryConfig pastry;
  PastNetwork net(config, pastry, 3);
  std::vector<NodeId> ids;
  for (int i = 0; i < 300; ++i) {
    ids.push_back(net.AddStorageNode(30'000'000));
  }
  PastClient client(net, ids[0], 1ULL << 40, 99);
  for (int f = 0; f < 3'000; ++f) {
    client.Insert("r" + std::to_string(f), 4'000);
  }
  for (int round = 0; round < 40; ++round) {
    const NodeId& id = ids[static_cast<size_t>(10 + round)];
    net.FailStorageNode(id);
    for (int f = 0; f < 200; ++f) {
      client.Insert("s" + std::to_string(round) + "-" + std::to_string(f), 4'000);
    }
    ASSERT_TRUE(net.RejoinStorageNode(id, 30'000'000).ok);
    EXPECT_EQ(net.overlay().node(id)->leaf_set().All().size(),
              static_cast<size_t>(pastry.leaf_set_size))
        << "round " << round;
  }
}

}  // namespace
}  // namespace past
