// Lookup-path tests: retrieval, early stop at replicas en route, caching
// along routes, cache hits shortening fetch distance (paper sections 2.2, 4).
#include <gtest/gtest.h>

#include "src/harness/experiment.h"
#include "src/past/client.h"

namespace past {
namespace {

TEST(PastLookupTest, LookupFindsInsertedFile) {
  PastConfig config;
  TestDeployment deployment = BuildDeployment(80, 10'000'000, config, 70);
  PastClient client(*deployment.network, deployment.node_ids[0], 1ull << 40, 71);
  ClientInsertResult inserted = client.Insert("doc.pdf", 4096);
  ASSERT_TRUE(inserted.stored);
  LookupResult r = client.Lookup(inserted.file_id);
  EXPECT_TRUE(r.found());
  EXPECT_EQ(r.file_size, 4096u);
  EXPECT_FALSE(r.served_from_cache);  // caching disabled in this config
  EXPECT_GE(r.hops, 0);
}

TEST(PastLookupTest, MissingFileNotFound) {
  PastConfig config;
  TestDeployment deployment = BuildDeployment(50, 10'000'000, config, 72);
  PastClient client(*deployment.network, deployment.node_ids[0], 1ull << 40, 73);
  FileId bogus;
  ASSERT_TRUE(FileId::FromHex("00112233445566778899aabbccddeeff00112233", &bogus));
  LookupResult r = client.Lookup(bogus);
  EXPECT_FALSE(r.found());
}

TEST(PastLookupTest, LookupFromReplicaHolderIsZeroHops) {
  PastConfig config;
  TestDeployment deployment = BuildDeployment(60, 10'000'000, config, 74);
  PastNetwork& network = *deployment.network;
  PastClient client(network, deployment.node_ids[0], 1ull << 40, 75);
  ClientInsertResult inserted = client.Insert("near.bin", 1000);
  ASSERT_TRUE(inserted.stored);
  NodeId holder = network.overlay().KClosestLive(inserted.file_id.ToRoutingKey(), 1).front();
  client.set_access_node(holder);
  LookupResult r = client.Lookup(inserted.file_id);
  EXPECT_TRUE(r.found());
  EXPECT_EQ(r.hops, 0);
  EXPECT_EQ(r.served_by, holder);
}

TEST(PastLookupTest, CachingStoresCopiesAlongRoute) {
  PastConfig config;
  config.cache_mode = CacheMode::kGreedyDualSize;
  TestDeployment deployment = BuildDeployment(80, 10'000'000, config, 76);
  PastNetwork& network = *deployment.network;
  PastClient client(network, deployment.node_ids[0], 1ull << 40, 77);
  ClientInsertResult inserted = client.Insert("popular.bin", 2048);
  ASSERT_TRUE(inserted.stored);

  // After the insert, the origin node should hold a cached copy (the insert
  // message was routed through it), so a lookup from there is a cache hit.
  LookupResult r = client.Lookup(inserted.file_id);
  EXPECT_TRUE(r.found());
  EXPECT_TRUE(r.served_from_cache);
  EXPECT_EQ(r.hops, 0);
}

TEST(PastLookupTest, RepeatedLookupsReduceAverageHops) {
  PastConfig config;
  config.cache_mode = CacheMode::kGreedyDualSize;
  TestDeployment deployment = BuildDeployment(120, 50'000'000, config, 78);
  PastNetwork& network = *deployment.network;
  PastClient inserter(network, deployment.node_ids[0], 1ull << 40, 79);
  ClientInsertResult inserted = inserter.Insert("hot.bin", 4000);
  ASSERT_TRUE(inserted.stored);

  // Issue lookups from many distinct origins; as caches warm up the
  // cumulative average fetch distance must not exceed the first lookup's.
  int first_hops = -1;
  double total = 0.0;
  int count = 0;
  for (size_t i = 1; i < deployment.node_ids.size(); i += 3) {
    inserter.set_access_node(deployment.node_ids[i]);
    LookupResult r = inserter.Lookup(inserted.file_id);
    ASSERT_TRUE(r.found());
    if (first_hops < 0) {
      first_hops = r.hops;
    }
    total += r.hops;
    ++count;
  }
  EXPECT_LE(total / count, static_cast<double>(first_hops) + 0.5);
  EXPECT_GT(network.metrics().Snapshot().CounterValue("past.lookup.cache_hits"), 0u);
}

TEST(PastLookupTest, NoCacheModeNeverServesFromCache) {
  PastConfig config;
  config.cache_mode = CacheMode::kNone;
  TestDeployment deployment = BuildDeployment(60, 10'000'000, config, 80);
  PastNetwork& network = *deployment.network;
  PastClient client(network, deployment.node_ids[0], 1ull << 40, 81);
  ClientInsertResult inserted = client.Insert("file.bin", 1000);
  ASSERT_TRUE(inserted.stored);
  for (size_t i = 0; i < deployment.node_ids.size(); i += 5) {
    client.set_access_node(deployment.node_ids[i]);
    LookupResult r = client.Lookup(inserted.file_id);
    ASSERT_TRUE(r.found());
    EXPECT_FALSE(r.served_from_cache);
  }
  EXPECT_EQ(network.metrics().Snapshot().CounterValue("past.lookup.cache_hits"), 0u);
}

TEST(PastLookupTest, LookupCountsTracked) {
  PastConfig config;
  TestDeployment deployment = BuildDeployment(40, 10'000'000, config, 82);
  PastNetwork& network = *deployment.network;
  PastClient client(network, deployment.node_ids[0], 1ull << 40, 83);
  ClientInsertResult inserted = client.Insert("counted.bin", 100);
  ASSERT_TRUE(inserted.stored);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Lookup(inserted.file_id).found());
  }
  EXPECT_EQ(network.metrics().Snapshot().CounterValue("past.lookup.requests"), 10u);
  EXPECT_EQ(network.metrics().Snapshot().CounterValue("past.lookup.found"), 10u);
}

}  // namespace
}  // namespace past
