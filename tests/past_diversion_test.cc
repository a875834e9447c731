// Replica diversion and file diversion tests (paper sections 3.3-3.4).
#include <gtest/gtest.h>

#include "src/common/distributions.h"
#include "src/harness/experiment.h"
#include "src/past/client.h"

namespace past {
namespace {

// Fill the k closest nodes for a target file until a fresh insert must divert.
TEST(PastDiversionTest, ReplicaDiversionKicksInWhenPrimariesFull) {
  PastConfig config;
  config.k = 5;
  config.policy.t_pri = 0.1;
  config.policy.t_div = 0.05;
  TestDeployment deployment = BuildDeployment(60, 1'000'000, config, 110);
  PastNetwork& network = *deployment.network;
  PastClient client(network, deployment.node_ids[0], 1ull << 50, 111);

  // Saturate the system with files until replica diversion appears.
  auto diverted = [&] {
    return network.metrics().Snapshot().GaugeValue("past.replicas.diverted");
  };
  const double diverted_before = diverted();
  int stored = 0;
  for (int i = 0; i < 3000 && diverted() == diverted_before; ++i) {
    ClientInsertResult r = client.Insert("fill-" + std::to_string(i), 9000);
    if (r.stored) {
      ++stored;
    }
  }
  EXPECT_GT(diverted(), diverted_before) << "after " << stored << " stored files";
}

TEST(PastDiversionTest, DivertedReplicaTrackedByPointers) {
  // Tiny deployment engineered so diversion is observable deterministically:
  // insert until some insert reports replicas_diverted > 0, then check the
  // pointer structure around that file.
  PastConfig config;
  config.k = 3;
  config.policy.t_pri = 0.1;
  config.policy.t_div = 0.1;
  TestDeployment deployment = BuildDeployment(40, 500'000, config, 112);
  PastNetwork& network = *deployment.network;
  PastClient client(network, deployment.node_ids[0], 1ull << 50, 113);

  FileId diverted_file;
  bool found = false;
  for (int i = 0; i < 5000 && !found; ++i) {
    auto cert = client.card().IssueFileCertificate("p-" + std::to_string(i),
                                                   static_cast<uint64_t>(i), 4000, 3,
                                                   Sha1::Hash("c"), 1);
    ASSERT_TRUE(cert.has_value());
    InsertResult r = client.InsertCertified(*cert, 4000);
    if (r.status == InsertStatus::kStored && r.replicas_diverted > 0) {
      diverted_file = cert->file_id;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no diversion observed";

  // Among the k closest: at least one node holds a diverter pointer instead
  // of the replica, and the pointer's target holds a diverted replica.
  NodeId key = diverted_file.ToRoutingKey();
  bool saw_pointer = false;
  for (const NodeId& id : network.overlay().KClosestLive(key, 3)) {
    const PastNode* node = network.storage_node(id);
    ASSERT_NE(node, nullptr);
    const DiversionPointer* ptr = node->store().GetPointer(diverted_file);
    if (ptr != nullptr && ptr->role == PointerRole::kDiverter) {
      saw_pointer = true;
      const PastNode* holder = network.storage_node(ptr->holder);
      ASSERT_NE(holder, nullptr);
      ASSERT_TRUE(holder->store().HasReplica(diverted_file));
      EXPECT_EQ(holder->store().GetReplica(diverted_file)->kind, ReplicaKind::kDiverted);
    }
  }
  EXPECT_TRUE(saw_pointer);
  EXPECT_EQ(network.CountStorageInvariantViolations({diverted_file}), 0u);
}

TEST(PastDiversionTest, LookupReachesDivertedReplicaViaPointer) {
  PastConfig config;
  config.k = 3;
  config.policy.t_pri = 0.1;
  config.policy.t_div = 0.1;
  TestDeployment deployment = BuildDeployment(40, 500'000, config, 114);
  PastNetwork& network = *deployment.network;
  PastClient client(network, deployment.node_ids[0], 1ull << 50, 115);

  // Saturate, keeping every stored fileId; then look them all up.
  std::vector<FileId> stored;
  for (int i = 0; i < 2000; ++i) {
    ClientInsertResult r = client.Insert("lk-" + std::to_string(i), 4000);
    if (r.stored) {
      stored.push_back(r.file_id);
    }
  }
  ASSERT_GT(network.metrics().Snapshot().GaugeValue("past.replicas.diverted"), 0.0);
  size_t found = 0;
  for (const FileId& f : stored) {
    if (client.Lookup(f).found()) {
      ++found;
    }
  }
  EXPECT_EQ(found, stored.size());
}

TEST(PastDiversionTest, FileDiversionRetriesWithNewSalt) {
  // A network too small/full for some inserts: the client should retry with
  // new salts, and a successful retry counts as a file diversion.
  PastConfig config;
  config.k = 5;
  TestDeployment deployment = BuildDeployment(30, 200'000, config, 116);
  PastNetwork& network = *deployment.network;
  PastClient client(network, deployment.node_ids[0], 1ull << 50, 117);

  int diversions = 0;
  int failures = 0;
  for (int i = 0; i < 4000; ++i) {
    ClientInsertResult r = client.Insert("fd-" + std::to_string(i), 3000);
    if (r.stored && r.diversions > 0) {
      ++diversions;
    }
    if (!r.stored) {
      ++failures;
      EXPECT_EQ(r.attempts, 4);  // used all four attempts before giving up
    }
  }
  EXPECT_GT(diversions, 0);
  EXPECT_GT(failures, 0);
}

TEST(PastDiversionTest, NoDiversionConfigFailsEarly) {
  // Baseline configuration (t_pri=1, t_div=0, single attempt): inserts start
  // failing at much lower utilization and utilization saturates well below
  // the diversion-enabled configuration.
  auto run = [](bool diversion_enabled) {
    PastConfig config;
    config.k = 5;
    if (diversion_enabled) {
      config.policy.t_pri = 0.1;
      config.policy.t_div = 0.05;
    } else {
      config.policy.t_pri = 1.0;
      config.policy.t_div = 0.0;
      config.enable_replica_diversion = false;
      config.enable_file_diversion = false;
    }
    TestDeployment deployment = BuildDeployment(50, 300'000, config, 118);
    PastNetwork& network = *deployment.network;
    PastClient client(network, deployment.node_ids[0], 1ull << 50, 119);
    Rng rng(120);
    FileSizeDistribution sizes(1312, 10517, 0.001, 1.1, 1'000'000);
    for (int i = 0; i < 6000; ++i) {
      client.Insert("nd-" + std::to_string(i), sizes.Sample(rng));
    }
    return network.utilization();
  };
  double with = run(true);
  double without = run(false);
  EXPECT_GT(with, without);
}

TEST(PastDiversionTest, DiversionTargetNeverAmongKClosest) {
  PastConfig config;
  config.k = 3;
  TestDeployment deployment = BuildDeployment(40, 400'000, config, 121);
  PastNetwork& network = *deployment.network;
  PastClient client(network, deployment.node_ids[0], 1ull << 50, 122);
  std::vector<FileId> stored;
  for (int i = 0; i < 1500; ++i) {
    ClientInsertResult r = client.Insert("kc-" + std::to_string(i), 4000);
    if (r.stored) {
      stored.push_back(r.file_id);
    }
  }
  // Check the invariant for every diverted replica we can find.
  for (const FileId& f : stored) {
    NodeId key = f.ToRoutingKey();
    std::vector<NodeId> k_closest = network.overlay().KClosestLive(key, 3);
    for (const NodeId& id : k_closest) {
      const PastNode* node = network.storage_node(id);
      const DiversionPointer* ptr =
          node == nullptr ? nullptr : node->store().GetPointer(f);
      if (ptr != nullptr && ptr->role == PointerRole::kDiverter) {
        EXPECT_EQ(std::find(k_closest.begin(), k_closest.end(), ptr->holder), k_closest.end());
      }
    }
  }
}

}  // namespace
}  // namespace past
