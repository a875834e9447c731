// Cooperative cache tier tests: CoopDirectory bookkeeping, retraction on
// every cache-removal path (so a brokered pointer never outlives the cached
// replica), the stale-probe clean-miss contract, and end-to-end brokered
// hits — plus the coop-enabled deterministic soak.
#include <gtest/gtest.h>

#include <array>
#include <set>

#include "src/cache/coop_directory.h"
#include "src/cache/file_cache.h"
#include "src/cache/lru_policy.h"
#include "src/harness/experiment.h"
#include "src/past/client.h"
#include "src/sim/churn_schedule.h"
#include "src/sim/sim_runner.h"

namespace past {
namespace {

FileId MakeFileId(uint32_t tag) {
  std::array<uint8_t, 20> bytes{};
  bytes[0] = static_cast<uint8_t>(tag >> 24);
  bytes[1] = static_cast<uint8_t>(tag >> 16);
  bytes[2] = static_cast<uint8_t>(tag >> 8);
  bytes[3] = static_cast<uint8_t>(tag);
  return FileId(bytes);
}

NodeId MakeNodeId(uint64_t tag) { return NodeId(tag, tag * 7919 + 1); }

TEST(CoopDirectoryTest, AdvertiseResolveRetract) {
  CoopDirectory dir;
  NodeId owner = MakeNodeId(1), holder = MakeNodeId(2);
  FileId file = MakeFileId(10);
  EXPECT_FALSE(dir.Resolve(owner, file).has_value());
  dir.Advertise(owner, file, holder);
  ASSERT_TRUE(dir.Resolve(owner, file).has_value());
  EXPECT_EQ(*dir.Resolve(owner, file), holder);
  EXPECT_EQ(dir.size(), 1u);

  dir.RetractHolder(holder, file);
  EXPECT_FALSE(dir.Resolve(owner, file).has_value());
  EXPECT_EQ(dir.size(), 0u);
  EXPECT_EQ(dir.advertised(), 1u);
  EXPECT_EQ(dir.retracted(), 1u);
  // Retracting a never-advertised pointer is a no-op, not an error.
  dir.RetractHolder(holder, file);
  EXPECT_EQ(dir.retracted(), 1u);
}

TEST(CoopDirectoryTest, ReadvertiseDisplacesPreviousHolder) {
  CoopDirectory dir;
  NodeId owner = MakeNodeId(1), first = MakeNodeId(2), second = MakeNodeId(3);
  FileId file = MakeFileId(10);
  dir.Advertise(owner, file, first);
  dir.Advertise(owner, file, second);
  EXPECT_EQ(*dir.Resolve(owner, file), second);
  EXPECT_EQ(dir.size(), 1u);
  // The displaced holder's reverse ad is gone: retracting it changes nothing.
  dir.RetractHolder(first, file);
  EXPECT_EQ(*dir.Resolve(owner, file), second);
}

TEST(CoopDirectoryTest, NodeFailureDropsBothRoles) {
  CoopDirectory dir;
  NodeId broker = MakeNodeId(1), casualty = MakeNodeId(2), survivor = MakeNodeId(3);
  // casualty appears as a holder under broker, and as a broker itself.
  dir.Advertise(broker, MakeFileId(1), casualty);
  dir.Advertise(casualty, MakeFileId(2), survivor);
  dir.Advertise(broker, MakeFileId(3), survivor);
  dir.OnNodeFailed(casualty);
  EXPECT_FALSE(dir.Resolve(broker, MakeFileId(1)).has_value());
  EXPECT_FALSE(dir.Resolve(casualty, MakeFileId(2)).has_value());
  EXPECT_EQ(*dir.Resolve(broker, MakeFileId(3)), survivor);
  EXPECT_EQ(dir.size(), 1u);
}

TEST(CoopDirectoryTest, SnapshotIsSortedAndComplete) {
  CoopDirectory dir;
  dir.Advertise(MakeNodeId(5), MakeFileId(2), MakeNodeId(9));
  dir.Advertise(MakeNodeId(1), MakeFileId(7), MakeNodeId(3));
  dir.Advertise(MakeNodeId(1), MakeFileId(4), MakeNodeId(8));
  std::vector<CoopAuditEntry> snapshot = dir.Snapshot();
  ASSERT_EQ(snapshot.size(), dir.size());
  for (size_t i = 1; i < snapshot.size(); ++i) {
    bool ordered = snapshot[i - 1].owner < snapshot[i].owner ||
                   (snapshot[i - 1].owner == snapshot[i].owner &&
                    snapshot[i - 1].file < snapshot[i].file);
    EXPECT_TRUE(ordered) << "snapshot entry " << i << " out of order";
  }
}

// The FileCache removal listener is the mechanism that keeps coop pointers
// from outliving cached copies: every exit path must fire it.
TEST(FileCacheRemovalListenerTest, FiresOnEvictRemoveAndShrink) {
  FileCache cache(std::make_unique<LruPolicy>(), 1.0);
  std::set<FileId> removed;
  cache.SetRemovalListener([&removed](const FileId& id) { removed.insert(id); });

  ASSERT_TRUE(cache.Insert(MakeFileId(1), 400, 1000));
  ASSERT_TRUE(cache.Insert(MakeFileId(2), 400, 1000));
  // Admitting 3 evicts the LRU entry 1.
  ASSERT_TRUE(cache.Insert(MakeFileId(3), 400, 1000));
  EXPECT_EQ(removed.count(MakeFileId(1)), 1u);
  // Explicit removal (reclaim purge / replica displacement).
  ASSERT_TRUE(cache.Remove(MakeFileId(2)));
  EXPECT_EQ(removed.count(MakeFileId(2)), 1u);
  // Budget shrink after a replica store.
  cache.ShrinkToBudget(0);
  EXPECT_EQ(removed.count(MakeFileId(3)), 1u);
  EXPECT_EQ(removed.size(), 3u);
}

class CoopNetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PastConfig config;
    config.cache_mode = CacheMode::kGreedyDualSize;
    config.enable_coop_cache = true;
    deployment_ = BuildDeployment(80, 10'000'000, config, 140);
  }
  PastNetwork& network() { return *deployment_.network; }
  TestDeployment deployment_;
};

TEST_F(CoopNetworkTest, BrokeredHitsServeNeighborsDirectly) {
  PastClient client(network(), deployment_.node_ids[0], 1ull << 40, 141);
  ClientInsertResult inserted = client.Insert("popular.bin", 4096);
  ASSERT_TRUE(inserted.stored);

  // Sweep lookups across every origin. Cache fills advertise to brokers, so
  // later origins whose broker heard an advertisement are served through the
  // coop tier without routing to the replica set.
  bool saw_coop = false;
  for (const NodeId& origin : deployment_.node_ids) {
    client.set_access_node(origin);
    LookupResult r = client.Lookup(inserted.file_id);
    ASSERT_TRUE(r.found());
    EXPECT_EQ(r.file_size, 4096u);
    if (r.via_coop) {
      saw_coop = true;
      EXPECT_TRUE(r.served_from_cache);
    }
  }
  EXPECT_TRUE(saw_coop);
  obs::MetricsSnapshot snapshot = network().SnapshotMetrics();
  EXPECT_GT(snapshot.CounterValue("past.cache.coop.probes"), 0u);
  EXPECT_GT(snapshot.CounterValue("past.cache.coop.hits"), 0u);
  // Tier accounting tiles the cache-hit total exactly.
  EXPECT_EQ(snapshot.CounterValue("past.cache.local_hits") +
                snapshot.CounterValue("past.cache.coop.hits"),
            snapshot.CounterValue("past.lookup.cache_hits"));
}

// Satellite regression: a stale directory pointer (holder evicted the copy,
// or the ad was forged) must degrade to a clean routed miss with the correct
// bytes — never a wrong read — and the stale pointer must be retracted.
TEST_F(CoopNetworkTest, StaleBrokeredPointerDegradesToCleanMiss) {
  PastClient client(network(), deployment_.node_ids[0], 1ull << 40, 142);
  ClientInsertResult inserted = client.Insert("stale.bin", 2222);
  ASSERT_TRUE(inserted.stored);

  // Pick an origin that cannot serve locally, then plant a stale pointer at
  // exactly the broker that origin will probe, naming a holder whose cache
  // does not hold the file.
  NodeId origin, holder;
  bool planted = false;
  for (const NodeId& candidate : deployment_.node_ids) {
    PastNode* node = network().storage_node(candidate);
    if (node == nullptr || node->store().HasReplica(inserted.file_id) ||
        (node->cache() != nullptr && node->cache()->SizeOf(inserted.file_id).has_value())) {
      continue;
    }
    std::optional<NodeId> broker = network().CoopBroker(candidate, inserted.file_id);
    if (!broker.has_value()) {
      continue;
    }
    for (const NodeId& h : deployment_.node_ids) {
      PastNode* hn = network().storage_node(h);
      if (h == candidate || h == *broker || hn == nullptr || hn->cache() == nullptr ||
          hn->cache()->SizeOf(inserted.file_id).has_value() ||
          hn->store().HasReplica(inserted.file_id)) {
        continue;
      }
      network().coop_directory().RetractHolder(h, inserted.file_id);
      network().coop_directory().Advertise(*broker, inserted.file_id, h);
      origin = candidate;
      holder = h;
      planted = true;
      break;
    }
    if (planted) {
      break;
    }
  }
  ASSERT_TRUE(planted) << "no plantable origin/holder pair in this deployment";

  uint64_t stale_before = network().SnapshotMetrics().CounterValue("past.cache.coop.stale");
  client.set_access_node(origin);
  LookupResult r = client.Lookup(inserted.file_id);
  // Correct bytes via the route fallback, not a wrong read from the holder.
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.file_size, 2222u);
  EXPECT_FALSE(r.via_coop);
  obs::MetricsSnapshot snapshot = network().SnapshotMetrics();
  EXPECT_EQ(snapshot.CounterValue("past.cache.coop.stale"), stale_before + 1);
  // The stale pointer was retracted on discovery.
  for (const CoopAuditEntry& entry : network().coop_directory().Snapshot()) {
    EXPECT_FALSE(entry.file == inserted.file_id && entry.holder == holder)
        << "stale pointer survived the probe";
  }
}

// Satellite regression: reclaim purges cached copies, and the removal
// listener retracts their coop pointers in the same step — the directory
// never brokers a file whose holder no longer caches it.
TEST_F(CoopNetworkTest, ReclaimPurgeRetractsCoopPointers) {
  PastClient client(network(), deployment_.node_ids[0], 1ull << 40, 143);
  ClientInsertResult inserted = client.Insert("doomed.bin", 3000);
  ASSERT_TRUE(inserted.stored);
  // Warm caches (and the directory) from several origins.
  for (size_t i = 0; i < deployment_.node_ids.size(); i += 4) {
    client.set_access_node(deployment_.node_ids[i]);
    ASSERT_TRUE(client.Lookup(inserted.file_id).found());
  }

  client.set_access_node(deployment_.node_ids[0]);
  ReclaimResult reclaimed = client.Reclaim(inserted.file_id);
  ASSERT_EQ(reclaimed.status, ReclaimStatus::kReclaimed);

  // Every surviving pointer for the file must still be backed by a live
  // cached copy; purged holders' pointers are gone.
  for (const CoopAuditEntry& entry : network().coop_directory().Snapshot()) {
    if (!(entry.file == inserted.file_id)) {
      continue;
    }
    PastNode* hn = network().storage_node(entry.holder);
    ASSERT_NE(hn, nullptr);
    ASSERT_NE(hn->cache(), nullptr);
    EXPECT_TRUE(hn->cache()->SizeOf(entry.file).has_value())
        << "coop pointer outlived the cached copy after reclaim";
  }
  // A post-reclaim lookup from a cold origin must never produce a wrong
  // read: either a clean miss or a correctly-sized cached copy.
  for (const NodeId& origin : deployment_.node_ids) {
    client.set_access_node(origin);
    LookupResult r = client.Lookup(inserted.file_id);
    if (r.found()) {
      EXPECT_EQ(r.file_size, 3000u);
    }
  }
}

TEST_F(CoopNetworkTest, HolderFailureDropsItsPointers) {
  PastClient client(network(), deployment_.node_ids[0], 1ull << 40, 144);
  ClientInsertResult inserted = client.Insert("orphan.bin", 1500);
  ASSERT_TRUE(inserted.stored);
  for (size_t i = 0; i < deployment_.node_ids.size(); i += 3) {
    client.set_access_node(deployment_.node_ids[i]);
    ASSERT_TRUE(client.Lookup(inserted.file_id).found());
  }
  // Fail every node that currently appears as a holder or broker; the
  // directory must drop all their entries.
  std::vector<CoopAuditEntry> before = network().coop_directory().Snapshot();
  ASSERT_FALSE(before.empty());
  NodeId casualty = before.front().holder;
  network().FailStorageNode(casualty);
  for (const CoopAuditEntry& entry : network().coop_directory().Snapshot()) {
    EXPECT_FALSE(entry.holder == casualty) << "failed holder still advertised";
    EXPECT_FALSE(entry.owner == casualty) << "failed broker still owns a shard";
  }
}

// The coop-enabled deterministic soak: every invariant (including the coop
// pointer audit) holds across a seed bank, and replays are bit-identical.
SimConfig CoopSimConfig(uint64_t seed) {
  SimConfig config;
  config.seed = seed;
  config.coop_cache = true;
  return config;
}

class CoopSimulationSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoopSimulationSeeds, HoldsEveryInvariant) {
  SimResult result = SimRunner(CoopSimConfig(GetParam())).Run();
  EXPECT_TRUE(result.ok) << "seed " << GetParam() << ": " << result.failure;
  EXPECT_GT(result.files_inserted, 0u);
}

INSTANTIATE_TEST_SUITE_P(CoopSoak, CoopSimulationSeeds,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

TEST(CoopSimulation, SameSeedReplaysBitIdentically) {
  SimResult first = SimRunner(CoopSimConfig(42)).Run();
  SimResult second = SimRunner(CoopSimConfig(42)).Run();
  ASSERT_TRUE(first.ok) << first.failure;
  EXPECT_EQ(first.schedule_fingerprint, second.schedule_fingerprint);
  EXPECT_EQ(first.state_fingerprint, second.state_fingerprint);
}

TEST(ScheduleShapeTest, NoneShapeLeavesScheduleByteIdentical) {
  ScheduleOptions plain;
  plain.num_events = 256;
  ScheduleOptions shaped = plain;
  shaped.shape = ScheduleShape::kNone;  // explicit, same as default
  std::vector<ScheduledEvent> a = ChurnScheduler(33, plain).Generate();
  std::vector<ScheduledEvent> b = ChurnScheduler(33, shaped).Generate();
  EXPECT_EQ(SerializeSchedule(a), SerializeSchedule(b));
}

TEST(ScheduleShapeTest, FlashShapeOnlyCollapsesWindowLookupPicks) {
  ScheduleOptions plain;
  plain.num_events = 400;
  ScheduleOptions shaped = plain;
  shaped.shape = ScheduleShape::kFlashCrowd;
  shaped.shape_hot_files = 2;
  std::vector<ScheduledEvent> a = ChurnScheduler(21, plain).Generate();
  std::vector<ScheduledEvent> b = ChurnScheduler(21, shaped).Generate();
  ASSERT_EQ(a.size(), b.size());
  size_t collapsed = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    // The shape is a pure per-index transform: classes and aux entropy are
    // untouched, and only lookups inside the window change their pick.
    ASSERT_EQ(a[i].cls, b[i].cls) << "event " << i;
    EXPECT_EQ(a[i].aux, b[i].aux) << "event " << i;
    double t = static_cast<double>(i) / static_cast<double>(plain.num_events);
    bool in_window = t >= shaped.shape_start && t < shaped.shape_end;
    if (b[i].cls == SimEventClass::kLookup && in_window) {
      EXPECT_EQ(b[i].pick, a[i].pick % shaped.shape_hot_files) << "event " << i;
      if (a[i].pick != b[i].pick) {
        ++collapsed;
      }
    } else {
      EXPECT_EQ(a[i].pick, b[i].pick) << "event " << i;
    }
  }
  EXPECT_GT(collapsed, 0u) << "flash window never altered a lookup pick";
}

TEST(CoopSimulation, CoopConfigRoundTripsThroughReproFile) {
  SimConfig config = CoopSimConfig(9);
  config.schedule.shape = ScheduleShape::kFlashCrowd;
  config.schedule.shape_start = 0.25;
  config.schedule.shape_end = 0.75;
  config.schedule.shape_hot_files = 3;
  std::optional<SimConfig> parsed = ParseSimConfig(SerializeSimConfig(config));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->coop_cache);
  EXPECT_EQ(parsed->schedule.shape, ScheduleShape::kFlashCrowd);
  EXPECT_DOUBLE_EQ(parsed->schedule.shape_start, 0.25);
  EXPECT_DOUBLE_EQ(parsed->schedule.shape_end, 0.75);
  EXPECT_EQ(parsed->schedule.shape_hot_files, 3u);
  EXPECT_FALSE(ParseSimConfig("seed=1\nshape=tsunami\n").has_value());
}

}  // namespace
}  // namespace past
