// Fault-injection tests over the message fabric (SimTransport): dropped
// protocol messages time out and roll back cleanly, duplicated deliveries
// are idempotent, and a partitioned node is presumed failed after the
// paper's unresponsiveness period T and its replicas are re-created.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/harness/experiment.h"
#include "src/past/client.h"
#include "src/past/ops/op_engine.h"
#include "src/pastry/keepalive.h"
#include "src/sim/event_queue.h"

namespace past {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void Build(size_t num_nodes, bool maintenance) {
    PastConfig config;
    config.k = 3;
    config.enable_maintenance = maintenance;
    deployment_ = BuildDeployment(num_nodes, /*capacity_per_node=*/50'000'000, config,
                                  /*seed=*/77);
    SimTransport::Options options;
    options.latency = LatencyModel::Lan();
    options.seed = 78;
    sim_ = &network().UseSimTransport(queue_, options);
  }

  PastNetwork& network() { return *deployment_.network; }
  NodeId AnyNode() { return deployment_.node_ids.front(); }

  TestDeployment deployment_;
  EventQueue queue_;
  SimTransport* sim_ = nullptr;
};

TEST_F(FaultInjectionTest, DroppedStoreReplicaTimesOutAndRollsBack) {
  Build(60, /*maintenance=*/false);
  PastClient client(network(), AnyNode(), 1ull << 40, 79);
  auto cert = client.card().IssueFileCertificate("doomed.bin", 1, 10'000, 3,
                                                 Sha1::Hash("doomed"), 1);
  ASSERT_TRUE(cert.has_value());

  sim_->DropNext(MessageType::kStoreReplica, 1);
  InsertResult result = client.InsertCertified(*cert, 10'000);
  EXPECT_EQ(result.status, InsertStatus::kTimeout);
  EXPECT_EQ(result.replicas_stored, 0u);
  EXPECT_TRUE(result.receipts.empty());

  // Rollback left no partial state anywhere: no replicas, no pointers, and
  // the gauges agree.
  EXPECT_EQ(network().CountLiveReplicas(cert->file_id), 0u);
  EXPECT_EQ(network().CountReplicas().replicas, 0u);
  EXPECT_EQ(network().metrics().Snapshot().GaugeValue("past.replicas.stored"), 0.0);
  EXPECT_EQ(network().total_stored(), 0u);
  EXPECT_EQ(sim_->stats().dropped(), 1u);
}

// The diversion legs of the store exchange (section 3.3). The farthest of
// the k closest is filled directly, past its t_pri headroom, so the primaries
// closer to the key store and the last one diverts to a leaf-set node B.
class DiversionFaultTest : public FaultInjectionTest {
 protected:
  static constexpr uint64_t kFileSize = 10'000;

  void SetUp() override {
    Build(60, /*maintenance=*/false);
    client_ = std::make_unique<PastClient>(network(), AnyNode(), 1ull << 40, 93);
    auto cert = client_->card().IssueFileCertificate("divert.bin", 1, kFileSize, 3,
                                                     Sha1::Hash("divert"), 1);
    ASSERT_TRUE(cert.has_value());
    cert_ = *cert;
    std::vector<NodeId> closest =
        network().overlay().KClosestLive(cert_.file_id.ToRoutingKey(), 4);
    ASSERT_EQ(closest.size(), 4u);
    full_ = closest[2];
    witness_ = closest[3];
    // 50 KB left: a 10 KB primary exceeds t_pri = 0.1 of the free space.
    PastNode* a = network().storage_node(full_);
    ASSERT_NE(a, nullptr);
    auto filler = client_->card().IssueFileCertificate("filler.bin", 2, 1, 3,
                                                       Sha1::Hash("filler"), 1);
    ASSERT_TRUE(filler.has_value());
    ASSERT_TRUE(a->StoreReplica(filler->file_id, ReplicaKind::kPrimary,
                                a->store().capacity() - 50'000, nullptr));
    ASSERT_FALSE(a->WouldAcceptPrimary(kFileSize));
  }

  std::unique_ptr<PastClient> client_;
  FileCertificate cert_;
  NodeId full_;     // the primary A that must divert
  NodeId witness_;  // C: the (k+1)-th closest
};

TEST_F(DiversionFaultTest, DroppedDivertRequestRollsBackEveryTarget) {
  const obs::MetricsSnapshot before = network().metrics().Snapshot();
  const uint64_t stored_before = network().total_stored();

  // Drive the attempt until A's request to B is lost: the two closer
  // primaries are stored by then.
  sim_->DropNext(MessageType::kDivertRequest, 1);
  InsertResult result;
  network().engine().StartInsert(AnyNode(), cert_, kFileSize, nullptr,
                                 [&](const InsertResult& r) { result = r; });
  while (sim_->stats().sends(MessageType::kDivertRequest) == 0 && network().engine().Poll()) {
  }
  ASSERT_EQ(sim_->stats().dropped(), 1u);
  EXPECT_EQ(network().CountLiveReplicas(cert_.file_id), 2u);
  network().engine().WaitAll();

  EXPECT_EQ(result.status, InsertStatus::kTimeout);
  EXPECT_EQ(result.replicas_stored, 0u);
  EXPECT_EQ(result.replicas_diverted, 0u);
  EXPECT_TRUE(result.receipts.empty());
  EXPECT_EQ(sim_->stats().sends(MessageType::kStoreReplica), 3u);

  // Every replica and pointer of the attempt is gone, and the accounting
  // is back where it started.
  EXPECT_EQ(network().CountLiveReplicas(cert_.file_id), 0u);
  for (const NodeId& id : network().StorageNodeIds()) {
    EXPECT_EQ(network().storage_node(id)->store().GetPointer(cert_.file_id), nullptr);
  }
  const obs::MetricsSnapshot after = network().metrics().Snapshot();
  EXPECT_EQ(after.GaugeValue("past.replicas.stored"), before.GaugeValue("past.replicas.stored"));
  EXPECT_EQ(after.GaugeValue("past.replicas.diverted"),
            before.GaugeValue("past.replicas.diverted"));
  EXPECT_EQ(network().total_stored(), stored_before);
}

TEST_F(DiversionFaultTest, DroppedWitnessPointerLeavesTheInsertStored) {
  // The witness pointer at C is best-effort: losing it neither fails the
  // attempt nor touches A's diverter pointer.
  sim_->DropNext(MessageType::kInstallPointer, 1);
  InsertResult result = client_->InsertCertified(cert_, kFileSize);

  EXPECT_EQ(result.status, InsertStatus::kStored);
  EXPECT_EQ(result.replicas_stored, 3u);
  EXPECT_EQ(result.replicas_diverted, 1u);
  EXPECT_EQ(result.receipts.size(), 3u);
  EXPECT_EQ(sim_->stats().dropped(), 1u);

  const DiversionPointer* diverter =
      network().storage_node(full_)->store().GetPointer(cert_.file_id);
  ASSERT_NE(diverter, nullptr);
  EXPECT_EQ(diverter->role, PointerRole::kDiverter);
  const PastNode* b = network().storage_node(diverter->holder);
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->store().HasReplica(cert_.file_id));
  EXPECT_EQ(b->store().GetReplica(cert_.file_id)->kind, ReplicaKind::kDiverted);
  EXPECT_EQ(network().storage_node(witness_)->store().GetPointer(cert_.file_id), nullptr);
  EXPECT_EQ(network().CountStorageInvariantViolations({cert_.file_id}), 0u);
}

TEST_F(FaultInjectionTest, ClientRetriesAfterDropAndSucceeds) {
  Build(60, /*maintenance=*/false);
  PastClient client(network(), AnyNode(), 1ull << 40, 79);

  // The first attempt loses one replica-store message mid-insert; the
  // client re-salts and the retry goes through untouched.
  sim_->DropNext(MessageType::kStoreReplica, 1);
  ClientInsertResult r = client.Insert("retry.bin", 20'000);
  ASSERT_TRUE(r.stored);
  EXPECT_EQ(r.attempts, 2);
  EXPECT_EQ(r.diversions, 1);
  EXPECT_EQ(r.last_status, InsertStatus::kStored);

  // Exactly k replicas network-wide: the failed attempt contributed nothing.
  EXPECT_EQ(network().CountLiveReplicas(r.file_id), 3u);
  EXPECT_EQ(network().CountReplicas().replicas, 3u);
  obs::MetricsSnapshot m = network().metrics().Snapshot();
  EXPECT_EQ(m.CounterValue("past.insert.attempts"), 2u);
  EXPECT_EQ(m.CounterValue("past.insert.failures"), 1u);
  EXPECT_EQ(network().CountStorageInvariantViolations({r.file_id}), 0u);
}

TEST_F(FaultInjectionTest, DuplicatedDeliveriesAreIdempotent) {
  Build(60, /*maintenance=*/false);
  // Every message is delivered twice. Receiver-side dedup must keep the
  // protocol exactly-once: k replicas, consistent gauges, one receipt set.
  SimTransport::Options options = sim_->options();
  options.faults.duplicate_probability = 1.0;
  sim_ = &network().UseSimTransport(queue_, options);

  PastClient client(network(), AnyNode(), 1ull << 40, 80);
  ClientInsertResult r = client.Insert("twice.bin", 15'000);
  ASSERT_TRUE(r.stored);
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(network().CountLiveReplicas(r.file_id), 3u);
  EXPECT_EQ(network().CountReplicas().replicas, 3u);
  EXPECT_EQ(network().metrics().Snapshot().GaugeValue("past.replicas.stored"), 3.0);
  EXPECT_GT(sim_->stats().duplicated(), 0u);

  LookupResult looked_up = client.Lookup(r.file_id);
  EXPECT_TRUE(looked_up.found());

  // Reclaim under duplication drains everything exactly once too.
  ReclaimResult reclaimed = client.Reclaim(r.file_id);
  EXPECT_EQ(reclaimed.status, ReclaimStatus::kReclaimed);
  EXPECT_EQ(reclaimed.replicas_reclaimed, 3u);
  EXPECT_EQ(network().CountReplicas().replicas, 0u);
  EXPECT_EQ(network().total_stored(), 0u);
}

TEST_F(FaultInjectionTest, LookupTimesOutOnDroppedFetchReply) {
  Build(60, /*maintenance=*/false);
  PastClient client(network(), AnyNode(), 1ull << 40, 81);
  ClientInsertResult r = client.Insert("fetch.bin", 12'000);
  ASSERT_TRUE(r.stored);

  sim_->DropNext(MessageType::kFetchReply, 1);
  LookupResult lost = client.Lookup(r.file_id);
  EXPECT_EQ(lost.status, LookupStatus::kTimeout);
  EXPECT_FALSE(lost.found());
  EXPECT_EQ(lost.file_size, 0u);

  LookupResult retried = client.Lookup(r.file_id);
  EXPECT_EQ(retried.status, LookupStatus::kFound);
  EXPECT_EQ(retried.file_size, 12'000u);
}

TEST_F(FaultInjectionTest, PartitionedNodeIsPresumedFailedAndRepaired) {
  Build(40, /*maintenance=*/true);
  PastClient client(network(), AnyNode(), 1ull << 40, 82);
  std::vector<FileId> files;
  for (int i = 0; i < 10; ++i) {
    ClientInsertResult r = client.Insert("part-" + std::to_string(i) + ".bin", 30'000);
    ASSERT_TRUE(r.stored);
    files.push_back(r.file_id);
  }

  // Keep-alive over the fabric: probe every period, presume a member failed
  // once it has been unresponsive for T = 3 periods.
  constexpr SimTime kPeriod = 1'000;
  constexpr SimTime kTimeout = 3 * kPeriod;
  KeepAliveDriver driver(queue_, network().overlay(), network().transport(), kPeriod, kTimeout);

  // Partition a node that holds a replica of the first file. It stays alive
  // (and keeps probing), but nothing reaches it and none of its probes or
  // acks get out.
  NodeId victim;
  bool found_victim = false;
  for (const NodeId& id : network().overlay().KClosestLive(files[0].ToRoutingKey(), 3)) {
    const PastNode* pn = network().storage_node(id);
    if (pn != nullptr && pn->store().HasReplica(files[0])) {
      victim = id;
      found_victim = true;
      break;
    }
  }
  ASSERT_TRUE(found_victim);
  sim_->Partition(victim);
  ASSERT_TRUE(network().overlay().IsAlive(victim));

  // Run the virtual clock past period + T: detection no later than that.
  queue_.RunUntil(queue_.now() + kPeriod + kTimeout + 2 * kPeriod);

  EXPECT_FALSE(network().overlay().IsAlive(victim));
  EXPECT_GE(driver.failures_detected(), 1u);
  // Replica maintenance restored the storage invariant for every file —
  // repair traffic flows over the same faulty fabric, but only the victim
  // is cut off.
  EXPECT_EQ(network().CountStorageInvariantViolations(files), 0u);
  EXPECT_EQ(network().CountLiveReplicas(files[0]), 3u);
  driver.Stop();
}

TEST_F(FaultInjectionTest, DuplicateDeliveryDuringPartitionStaysConsistent) {
  Build(40, /*maintenance=*/true);
  PastClient client(network(), AnyNode(), 1ull << 40, 91);
  std::vector<FileId> files;
  for (int i = 0; i < 8; ++i) {
    ClientInsertResult r = client.Insert("dup-part-" + std::to_string(i) + ".bin", 20'000);
    ASSERT_TRUE(r.stored);
    files.push_back(r.file_id);
  }

  // Combined fault: every message is delivered twice while a replica holder
  // is cut off — keep-alive, detection and repair traffic all run duplicated.
  FaultPlan faults;
  faults.duplicate_probability = 1.0;
  sim_->set_faults(faults);

  constexpr SimTime kPeriod = 1'000;
  constexpr SimTime kTimeout = 3 * kPeriod;
  KeepAliveDriver driver(queue_, network().overlay(), network().transport(), kPeriod, kTimeout);

  NodeId victim;
  bool found_victim = false;
  for (const NodeId& id : network().overlay().KClosestLive(files[0].ToRoutingKey(), 3)) {
    const PastNode* pn = network().storage_node(id);
    if (pn != nullptr && pn->store().HasReplica(files[0])) {
      victim = id;
      found_victim = true;
      break;
    }
  }
  ASSERT_TRUE(found_victim);
  sim_->Partition(victim);
  queue_.RunUntil(queue_.now() + kPeriod + kTimeout + 2 * kPeriod);
  EXPECT_FALSE(network().overlay().IsAlive(victim));
  driver.Stop();

  // Duplicated repair pushes must not double-store replicas or double-count
  // the gauges: the census and the metrics must agree exactly.
  sim_->set_faults(FaultPlan{});
  sim_->Heal(victim);
  network().MaintenanceSweep();
  EXPECT_EQ(network().CountStorageInvariantViolations(files), 0u);
  EXPECT_EQ(network().metrics().Snapshot().GaugeValue("past.replicas.stored"),
            static_cast<double>(network().CountReplicas().replicas));
  for (const FileId& f : files) {
    EXPECT_EQ(network().CountLiveReplicas(f), 3u) << f.ToHex();
  }
  // The victim may have been the default origin; look up from a live node.
  NodeId origin = AnyNode();
  for (const NodeId& id : network().StorageNodeIds()) {
    if (network().overlay().IsAlive(id)) {
      origin = id;
      break;
    }
  }
  client.set_access_node(origin);
  EXPECT_TRUE(client.Lookup(files[0]).found());
}

TEST_F(FaultInjectionTest, DroppedRepairStoreIsHealedByMaintenanceSweep) {
  Build(40, /*maintenance=*/true);
  PastClient client(network(), AnyNode(), 1ull << 40, 92);
  std::vector<FileId> files;
  for (int i = 0; i < 6; ++i) {
    ClientInsertResult r = client.Insert("rep-drop-" + std::to_string(i) + ".bin", 20'000);
    ASSERT_TRUE(r.stored);
    files.push_back(r.file_id);
  }

  NodeId victim;
  bool found_victim = false;
  for (const NodeId& id : network().overlay().KClosestLive(files[0].ToRoutingKey(), 3)) {
    const PastNode* pn = network().storage_node(id);
    if (pn != nullptr && pn->store().HasReplica(files[0])) {
      victim = id;
      found_victim = true;
      break;
    }
  }
  ASSERT_TRUE(found_victim);

  // Combined fault: the node failure's repair runs with one replica push
  // silently lost, so some file is left with a pointer fallback or a hole.
  sim_->DropNext(MessageType::kRepairStore, 1);
  network().FailStorageNode(victim);
  EXPECT_EQ(sim_->stats().dropped(), 1u);

  // A later maintenance sweep (fault-free) must restore full replication.
  network().MaintenanceSweep();
  EXPECT_EQ(network().CountStorageInvariantViolations(files), 0u);
  for (const FileId& f : files) {
    EXPECT_EQ(network().CountLiveReplicas(f), 3u) << f.ToHex();
  }
  NodeId origin = AnyNode();
  for (const NodeId& id : network().StorageNodeIds()) {
    if (network().overlay().IsAlive(id)) {
      origin = id;
      break;
    }
  }
  client.set_access_node(origin);
  EXPECT_TRUE(client.Lookup(files[0]).found());
}

// Evict-vs-reclaim through the typed message path: route-side caching fills
// caches, one cache evicts the entry on its own, then the reclaim purges
// cached copies at every node it visits — double removal must be harmless
// and the k+1 closest nodes must not serve the reclaimed file from cache.
TEST(CacheReclaimRace, ReclaimPurgesCachedCopiesAtVisitedNodes) {
  PastConfig config;
  config.k = 3;
  config.cache_mode = CacheMode::kGreedyDualSize;
  config.enable_maintenance = true;
  TestDeployment deployment = BuildDeployment(50, 50'000'000, config, 99);
  PastNetwork& net = *deployment.network;
  EventQueue queue;
  SimTransport::Options options;
  options.latency = LatencyModel::Lan();
  options.seed = 100;
  net.UseSimTransport(queue, options);

  PastClient client(net, deployment.node_ids.front(), 1ull << 40, 101);
  ClientInsertResult r = client.InsertContent("cached.bin", std::string(8'000, 'x'));
  ASSERT_TRUE(r.stored);

  // Lookups from many origins cache the file along their routes.
  for (size_t i = 0; i < deployment.node_ids.size(); i += 5) {
    client.set_access_node(deployment.node_ids[i]);
    client.Lookup(r.file_id);
  }
  std::vector<NodeId> caching_nodes;
  for (const NodeId& id : net.StorageNodeIds()) {
    const PastNode* pn = net.storage_node(id);
    if (pn != nullptr && pn->cache() != nullptr &&
        pn->cache()->SizeOf(r.file_id).has_value()) {
      caching_nodes.push_back(id);
    }
  }
  ASSERT_FALSE(caching_nodes.empty());

  // One cache races the reclaim: it evicts the entry before the reclaim's
  // purge reaches it.
  PastNode* racer = net.storage_node(caching_nodes.front());
  racer->cache()->ShrinkToBudget(0);
  EXPECT_EQ(racer->cache()->used(), 0u);

  ReclaimResult reclaimed = client.Reclaim(r.file_id);
  EXPECT_EQ(reclaimed.status, ReclaimStatus::kReclaimed);
  EXPECT_EQ(net.CountLiveReplicas(r.file_id), 0u);
  // The reclaim visited the k+1 nodes now closest to the fileId; none of
  // them may keep a cached copy that could shadow the reclaim.
  for (const NodeId& id : net.overlay().KClosestLive(r.file_id.ToRoutingKey(), 4)) {
    const PastNode* pn = net.storage_node(id);
    ASSERT_NE(pn, nullptr);
    EXPECT_FALSE(pn->cache()->SizeOf(r.file_id).has_value()) << id.ToHex();
  }
  // The racer's early eviction plus the purge double-removal left its
  // accounting intact.
  EXPECT_EQ(racer->cache()->used(), 0u);
}

}  // namespace
}  // namespace past
