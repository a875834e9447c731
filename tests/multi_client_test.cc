// Multi-client behavior: independent quotas, per-owner namespaces, sharing
// by fileId distribution, and reclaim of diverted replicas.
#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/past/client.h"

namespace past {
namespace {

class MultiClientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PastConfig config;
    config.k = 3;
    deployment_ = BuildDeployment(60, 10'000'000, config, 300);
  }
  PastNetwork& network() { return *deployment_.network; }
  TestDeployment deployment_;
};

TEST_F(MultiClientTest, SameNameDifferentOwnersAreDistinctFiles) {
  PastClient alice(network(), deployment_.node_ids[0], 1ull << 40, 301);
  PastClient bob(network(), deployment_.node_ids[1], 1ull << 40, 302);
  ClientInsertResult a = alice.Insert("report.pdf", 1000);
  ClientInsertResult b = bob.Insert("report.pdf", 2000);
  ASSERT_TRUE(a.stored);
  ASSERT_TRUE(b.stored);
  EXPECT_NE(a.file_id, b.file_id);  // fileId covers the owner's public key
  EXPECT_EQ(alice.Lookup(a.file_id).file_size, 1000u);
  EXPECT_EQ(alice.Lookup(b.file_id).file_size, 2000u);
}

TEST_F(MultiClientTest, SharingByFileIdWorksAcrossClients) {
  // The paper's sharing model: distribute the fileId; anyone can look it up.
  PastClient publisher(network(), deployment_.node_ids[0], 1ull << 40, 303);
  PastClient reader(network(), deployment_.node_ids[5], 1ull << 40, 304);
  ClientInsertResult published = publisher.InsertContent("shared.txt", "public data");
  ASSERT_TRUE(published.stored);
  LookupResult r = reader.Lookup(published.file_id);
  ASSERT_TRUE(r.found());
  ASSERT_NE(r.content, nullptr);
  EXPECT_EQ(*r.content, "public data");
}

TEST_F(MultiClientTest, QuotasAreIndependent) {
  PastClient rich(network(), deployment_.node_ids[0], 1'000'000, 305);
  PastClient poor(network(), deployment_.node_ids[1], 3'000, 306);
  EXPECT_TRUE(rich.Insert("big.bin", 100'000).stored);
  // poor's quota (3000) covers 1000 bytes * k=3 exactly once.
  EXPECT_TRUE(poor.Insert("small.bin", 1'000).stored);
  ClientInsertResult over = poor.Insert("small2.bin", 1'000);
  EXPECT_FALSE(over.stored);
  EXPECT_TRUE(over.quota_exceeded);
  // rich is unaffected.
  EXPECT_TRUE(rich.Insert("big2.bin", 100'000).stored);
}

TEST_F(MultiClientTest, ManyClientsConcurrentMix) {
  std::vector<std::unique_ptr<PastClient>> clients;
  for (int c = 0; c < 12; ++c) {
    clients.push_back(std::make_unique<PastClient>(
        network(), deployment_.node_ids[static_cast<size_t>(c * 4)], 1ull << 40,
        400 + static_cast<uint64_t>(c)));
  }
  std::vector<std::pair<int, FileId>> files;
  Rng rng(307);
  for (int round = 0; round < 200; ++round) {
    int c = static_cast<int>(rng.NextBelow(clients.size()));
    ClientInsertResult r =
        clients[static_cast<size_t>(c)]->Insert("c" + std::to_string(c) + "-" + std::to_string(round),
                                                100 + rng.NextBelow(20'000));
    ASSERT_TRUE(r.stored);
    files.emplace_back(c, r.file_id);
  }
  // Every client can read every file.
  for (const auto& [owner, id] : files) {
    int reader = static_cast<int>(rng.NextBelow(clients.size()));
    EXPECT_TRUE(clients[static_cast<size_t>(reader)]->Lookup(id).found());
    (void)owner;
  }
  // Owners reclaim half the files; the rest stay readable.
  for (size_t i = 0; i < files.size(); i += 2) {
    EXPECT_TRUE(clients[static_cast<size_t>(files[i].first)]->Reclaim(files[i].second).accepted());
  }
  for (size_t i = 1; i < files.size(); i += 2) {
    EXPECT_TRUE(clients[0]->Lookup(files[i].second).found());
  }
  for (size_t i = 0; i < files.size(); i += 2) {
    EXPECT_FALSE(clients[0]->Lookup(files[i].second).found());
  }
}

TEST(MultiClientDivertedReclaimTest, ReclaimRemovesDivertedReplicas) {
  // Saturate a small deployment so diverted replicas exist, then reclaim
  // every stored file: all replicas — including diverted ones — must go.
  PastConfig config;
  config.k = 3;
  config.policy.t_pri = 0.1;
  config.policy.t_div = 0.1;
  TestDeployment deployment = BuildDeployment(40, 500'000, config, 310);
  PastNetwork& network = *deployment.network;
  PastClient client(network, deployment.node_ids[0], 1ull << 50, 311);
  std::vector<FileId> stored;
  for (int i = 0; i < 1500; ++i) {
    ClientInsertResult r = client.Insert("d-" + std::to_string(i), 4000);
    if (r.stored) {
      stored.push_back(r.file_id);
    }
  }
  ASSERT_GT(network.metrics().Snapshot().GaugeValue("past.replicas.diverted"), 0.0);
  for (const FileId& f : stored) {
    client.Reclaim(f);
  }
  EXPECT_EQ(network.total_stored(), 0u);
  PastNetwork::ReplicaCensus census = network.CountReplicas();
  EXPECT_EQ(census.replicas, 0u);
  EXPECT_EQ(census.diverted, 0u);
}

}  // namespace
}  // namespace past
