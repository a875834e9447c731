// The submit/completion surface of the async operation engine: completion
// callbacks fire in virtual-time completion order (not submission order) and
// deterministically so; a cancelled op never runs its callback, and a
// cancelled insert leaves no partial state; an op that times out while
// duplicate replies are still in flight rolls back cleanly and ignores the
// stragglers; the blocking wrappers are bit-identical to Begin* + Wait on a
// fixed seed bank; and a long chain of inserts, each submitted from the
// last one's callback, runs on a small stack.
#include <gtest/gtest.h>
#include <pthread.h>

#include <set>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/past/client.h"
#include "src/past/ops/op_engine.h"
#include "src/sim/event_queue.h"
#include "src/sim/invariant_checker.h"

namespace past {
namespace {

class AsyncOpsTest : public ::testing::Test {
 protected:
  void Build(size_t num_nodes, uint64_t seed = 77) {
    PastConfig config;
    config.k = 3;
    config.enable_maintenance = false;
    deployment_ = BuildDeployment(num_nodes, /*capacity_per_node=*/50'000'000, config, seed);
    SimTransport::Options options;
    options.latency = LatencyModel::Lan();
    options.seed = seed + 1;
    sim_ = &network().UseSimTransport(queue_, options);
  }

  PastNetwork& network() { return *deployment_.network; }
  NodeId AnyNode() { return deployment_.node_ids.front(); }

  TestDeployment deployment_;
  EventQueue queue_;
  SimTransport* sim_ = nullptr;
};

TEST_F(AsyncOpsTest, CallbacksRunInCompletionOrderNotSubmissionOrder) {
  Build(60);
  PastClient client(network(), AnyNode(), 1ull << 40, 79);
  ClientInsertResult seeded = client.Insert("seed.bin", 10'000);
  ASSERT_TRUE(seeded.stored);

  // The insert is submitted first but needs several sequential round trips
  // (request, then per-replica store + ack); the lookup is one round trip
  // and must complete — and call back — first.
  std::vector<std::string> order;
  OpHandle insert = client.BeginInsert("slow.bin", 10'000,
                                       [&](const ClientInsertResult& r) {
                                         EXPECT_TRUE(r.stored);
                                         order.push_back("insert");
                                       });
  OpHandle lookup = client.BeginLookup(seeded.file_id, [&](const LookupResult& r) {
    EXPECT_TRUE(r.found());
    order.push_back("lookup");
  });
  EXPECT_FALSE(insert.done());
  EXPECT_FALSE(lookup.done());
  client.WaitAll();
  EXPECT_TRUE(insert.done());
  EXPECT_TRUE(lookup.done());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "lookup");
  EXPECT_EQ(order[1], "insert");
}

TEST_F(AsyncOpsTest, CompletionOrderIsDeterministicAcrossRuns) {
  // The same seed must produce the same interleaving of completions, run to
  // run: virtual-time delivery order is a pure function of the seed.
  auto run_once = [](std::vector<int>* order) {
    PastConfig config;
    config.k = 3;
    config.enable_maintenance = false;
    TestDeployment deployment = BuildDeployment(50, 50'000'000, config, 31);
    EventQueue queue;
    SimTransport::Options options;
    options.latency = LatencyModel::Lan();
    options.seed = 32;
    deployment.network->UseSimTransport(queue, options);
    PastClient client(*deployment.network, deployment.node_ids.front(), 1ull << 40, 33);

    std::vector<FileId> files;
    for (int i = 0; i < 4; ++i) {
      ClientInsertResult r = client.Insert("warm-" + std::to_string(i), 8'000);
      ASSERT_TRUE(r.stored);
      files.push_back(r.file_id);
    }
    for (int i = 0; i < 12; ++i) {
      client.set_access_node(deployment.node_ids[static_cast<size_t>(i) %
                                                 deployment.node_ids.size()]);
      if (i % 3 == 0) {
        client.BeginInsert("mix-" + std::to_string(i), 8'000,
                           [order, i](const ClientInsertResult&) { order->push_back(i); });
      } else {
        client.BeginLookup(files[static_cast<size_t>(i) % files.size()],
                           [order, i](const LookupResult&) { order->push_back(i); });
      }
    }
    client.WaitAll();
  };

  std::vector<int> first;
  std::vector<int> second;
  run_once(&first);
  run_once(&second);
  ASSERT_EQ(first.size(), 12u);
  EXPECT_EQ(first, second);
  // Submission order and completion order genuinely differ in this mix.
  std::vector<int> submission = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  EXPECT_NE(first, submission);
}

TEST_F(AsyncOpsTest, CancelBeforeCompletionSuppressesCallbackAndRollsBack) {
  Build(60);
  PastClient client(network(), AnyNode(), 1ull << 40, 79);

  bool callback_ran = false;
  OpHandle handle = client.BeginInsert("doomed.bin", 10'000,
                                       [&](const ClientInsertResult&) { callback_ran = true; });
  ASSERT_FALSE(handle.done());
  // Pump until the half-done attempt has really stored a replica somewhere,
  // so the cancel has partial state to roll back.
  while (network().CountReplicas().replicas == 0 && client.Poll()) {
  }
  ASSERT_GT(network().CountReplicas().replicas, 0u);

  handle.Cancel();
  EXPECT_TRUE(handle.done());
  // Rollback is immediate and complete: no replicas, no pointers, balanced
  // ledgers — and the straggling in-flight deliveries change nothing.
  EXPECT_EQ(network().CountReplicas().replicas, 0u);
  EXPECT_EQ(network().total_stored(), 0u);
  client.WaitAll();
  while (queue_.Step()) {
  }
  EXPECT_FALSE(callback_ran);
  EXPECT_EQ(network().CountReplicas().replicas, 0u);
  EXPECT_EQ(network().total_stored(), 0u);
  EXPECT_EQ(network().metrics().Snapshot().GaugeValue("past.replicas.stored"), 0.0);
  const obs::Counter* cancelled = network().metrics().FindCounter("engine.ops.cancelled");
  ASSERT_NE(cancelled, nullptr);
  EXPECT_EQ(cancelled->value(), 1u);
}

TEST_F(AsyncOpsTest, CancelledLookupAndReclaimNeverCallBack) {
  Build(60);
  PastClient client(network(), AnyNode(), 1ull << 40, 83);
  ClientInsertResult looked_up = client.Insert("looked-up.bin", 10'000);
  ClientInsertResult reclaimed = client.Insert("reclaimed.bin", 10'000);
  ASSERT_TRUE(looked_up.stored);
  ASSERT_TRUE(reclaimed.stored);
  const uint64_t quota_before = client.card().quota_remaining();
  const obs::Counter* cancelled = network().metrics().FindCounter("engine.ops.cancelled");
  ASSERT_NE(cancelled, nullptr);
  const uint64_t cancelled_before = cancelled->value();

  bool lookup_called = false;
  bool reclaim_called = false;
  OpHandle lookup = client.BeginLookup(looked_up.file_id,
                                       [&](const LookupResult&) { lookup_called = true; });
  OpHandle reclaim = client.BeginReclaim(reclaimed.file_id,
                                         [&](const ReclaimResult&) { reclaim_called = true; });
  ASSERT_TRUE(client.Poll());
  ASSERT_FALSE(lookup.done());
  ASSERT_FALSE(reclaim.done());

  lookup.Cancel();
  reclaim.Cancel();
  EXPECT_TRUE(lookup.done());
  EXPECT_TRUE(reclaim.done());
  EXPECT_EQ(cancelled->value(), cancelled_before + 2);
  // Straggling deliveries land on closed handlers: no callback, and no
  // reclaim receipt reaches the quota.
  client.WaitAll();
  EXPECT_EQ(network().engine().in_flight(), 0u);
  while (queue_.Step()) {
  }
  EXPECT_FALSE(lookup_called);
  EXPECT_FALSE(reclaim_called);
  EXPECT_EQ(client.card().quota_remaining(), quota_before);
}

TEST(AsyncReclaimCancel, CreditsEveryReplicaAlreadyDropped) {
  // Cancel the reclaim of a 10,000-byte k=3 file after 1, 2, ... transport
  // events, until it finishes on its own. A cancel cannot restore dropped
  // replicas, so the owner must be credited for exactly those, and the
  // user's callback must never run.
  std::set<size_t> partial_counts;
  for (int events = 1;; ++events) {
    PastConfig config;
    config.k = 3;
    config.enable_maintenance = false;
    TestDeployment deployment = BuildDeployment(60, 50'000'000, config, 77);
    EventQueue queue;
    SimTransport::Options options;
    options.latency = LatencyModel::Lan();
    options.seed = 78;
    deployment.network->UseSimTransport(queue, options);
    PastClient client(*deployment.network, deployment.node_ids.front(), 1ull << 40, 83);
    ClientInsertResult stored = client.Insert("reclaimed.bin", 10'000);
    ASSERT_TRUE(stored.stored);
    const uint64_t quota_before = client.card().quota_remaining();

    bool called = false;
    OpHandle reclaim =
        client.BeginReclaim(stored.file_id, [&](const ReclaimResult&) { called = true; });
    for (int i = 0; i < events && !reclaim.done(); ++i) {
      ASSERT_TRUE(client.Poll());
    }
    if (reclaim.done()) {
      ASSERT_GT(events, 1);
      break;  // every cut point before completion has been tried
    }
    reclaim.Cancel();
    client.WaitAll();
    while (queue.Step()) {
    }
    EXPECT_FALSE(called) << "events " << events;
    size_t replicas_left = 0;
    for (const NodeId& id : deployment.node_ids) {
      const PastNode* node = deployment.network->storage_node(id);
      replicas_left += node != nullptr && node->store().GetReplica(stored.file_id) != nullptr;
    }
    ASSERT_LE(replicas_left, 3u);
    EXPECT_EQ(client.card().quota_remaining(), quota_before + 10'000 * (3 - replicas_left))
        << "events " << events << ", replicas left " << replicas_left;
    if (replicas_left > 0 && replicas_left < 3) {
      partial_counts.insert(replicas_left);
    }
  }
  // Some cut points land between drops, so the test exercises a partial credit.
  EXPECT_FALSE(partial_counts.empty());
}

TEST_F(AsyncOpsTest, TimeoutWithDuplicateRepliesInFlightRollsBackCleanly) {
  Build(60);
  // Every message is both duplicated and delayed past the op timeout: the
  // insert's state machine gives up and rolls back while two copies of every
  // reply are still in flight. The late deliveries must hit closed (stale-
  // epoch) handlers and leave no trace.
  FaultPlan faults;
  faults.duplicate_probability = 1.0;
  faults.delay_probability = 1.0;
  faults.delay_ms = 10'000.0;  // > the 2000 ms op timeout
  sim_->set_faults(faults);

  PastClient client(network(), AnyNode(), 1ull << 40, 80);
  auto cert = client.card().IssueFileCertificate("late.bin", 1, 10'000, 3,
                                                 Sha1::Hash("late"), 1);
  ASSERT_TRUE(cert.has_value());
  InsertResult result = client.InsertCertified(*cert, 10'000);
  EXPECT_EQ(result.status, InsertStatus::kTimeout);
  EXPECT_EQ(result.replicas_stored, 0u);
  EXPECT_GT(sim_->stats().duplicated(), 0u);

  // Flush the stragglers (both copies of every delayed message), then audit.
  while (queue_.Step()) {
  }
  EXPECT_EQ(network().CountLiveReplicas(cert->file_id), 0u);
  EXPECT_EQ(network().CountReplicas().replicas, 0u);
  EXPECT_EQ(network().total_stored(), 0u);
  EXPECT_EQ(network().metrics().Snapshot().GaugeValue("past.replicas.stored"), 0.0);

  // With the fabric healthy again the same client inserts successfully.
  sim_->set_faults(FaultPlan{});
  ClientInsertResult retry = client.Insert("retry.bin", 10'000);
  EXPECT_TRUE(retry.stored);
  EXPECT_EQ(network().CountLiveReplicas(retry.file_id), 3u);
}

TEST_F(AsyncOpsTest, ManyOverlappingOpsShareTheWire) {
  Build(60);
  PastClient client(network(), AnyNode(), 1ull << 40, 81);
  std::vector<FileId> files;
  for (int i = 0; i < 10; ++i) {
    ClientInsertResult r = client.Insert("many-" + std::to_string(i), 8'000);
    ASSERT_TRUE(r.stored);
    files.push_back(r.file_id);
  }

  size_t completed = 0;
  for (int i = 0; i < 150; ++i) {
    client.set_access_node(deployment_.node_ids[static_cast<size_t>(i) %
                                                deployment_.node_ids.size()]);
    client.BeginLookup(files[static_cast<size_t>(i) % files.size()],
                       [&](const LookupResult& r) {
                         EXPECT_TRUE(r.found());
                         ++completed;
                       });
  }
  EXPECT_GE(network().engine().in_flight(), 150u);
  client.WaitAll();
  EXPECT_EQ(completed, 150u);
  EXPECT_EQ(network().engine().in_flight(), 0u);
  EXPECT_GE(network().engine().peak_in_flight(), 100u);
}

TEST(AsyncBlockingEquivalence, SurfacesAreBitIdenticalOnSeedBank) {
  // The blocking wrappers are documented as exactly Begin* + Wait. Replay
  // the same workload through both surfaces on identical deployments and
  // require identical per-op results and an identical final storage state.
  for (uint64_t seed : {101ull, 202ull, 303ull}) {
    PastConfig config;
    config.k = 3;
    config.enable_maintenance = false;

    TestDeployment blocking_dep = BuildDeployment(40, 50'000'000, config, seed);
    EventQueue blocking_queue;
    TestDeployment async_dep = BuildDeployment(40, 50'000'000, config, seed);
    EventQueue async_queue;
    SimTransport::Options options;
    options.latency = LatencyModel::Lan();
    options.seed = seed + 1;
    blocking_dep.network->UseSimTransport(blocking_queue, options);
    async_dep.network->UseSimTransport(async_queue, options);

    PastClient blocking(*blocking_dep.network, blocking_dep.node_ids.front(), 1ull << 40,
                        seed + 2);
    PastClient async(*async_dep.network, async_dep.node_ids.front(), 1ull << 40, seed + 2);

    std::vector<FileId> blocking_files;
    std::vector<FileId> async_files;
    for (int i = 0; i < 6; ++i) {
      std::string name = "eq-" + std::to_string(i);
      ClientInsertResult b = blocking.Insert(name, 9'000);
      ClientInsertResult a;
      OpHandle handle = async.BeginInsert(name, 9'000,
                                          [&a](const ClientInsertResult& r) { a = r; });
      async.Wait(handle);
      ASSERT_TRUE(handle.done());
      EXPECT_EQ(a.stored, b.stored) << "seed " << seed;
      EXPECT_EQ(a.attempts, b.attempts);
      EXPECT_EQ(a.diversions, b.diversions);
      ASSERT_TRUE(b.stored);
      EXPECT_EQ(a.file_id.ToHex(), b.file_id.ToHex());
      blocking_files.push_back(b.file_id);
      async_files.push_back(a.file_id);
    }
    for (int i = 0; i < 6; ++i) {
      LookupResult b = blocking.Lookup(blocking_files[static_cast<size_t>(i)]);
      LookupResult a;
      OpHandle handle = async.BeginLookup(async_files[static_cast<size_t>(i)],
                                          [&a](const LookupResult& r) { a = r; });
      async.Wait(handle);
      EXPECT_EQ(a.status, b.status);
      EXPECT_EQ(a.file_size, b.file_size);
      EXPECT_EQ(a.hops, b.hops);
    }
    for (int i = 0; i < 2; ++i) {
      ReclaimResult b = blocking.Reclaim(blocking_files[static_cast<size_t>(i)]);
      ReclaimResult a;
      OpHandle handle = async.BeginReclaim(async_files[static_cast<size_t>(i)],
                                           [&a](const ReclaimResult& r) { a = r; });
      async.Wait(handle);
      EXPECT_EQ(a.status, b.status);
      EXPECT_EQ(a.replicas_reclaimed, b.replicas_reclaimed);
    }
    EXPECT_EQ(blocking.card().quota_remaining(), async.card().quota_remaining())
        << "seed " << seed;
    EXPECT_EQ(NetworkStateFingerprint(*blocking_dep.network),
              NetworkStateFingerprint(*async_dep.network))
        << "seed " << seed;
  }
}

// Completion callbacks may submit new ops (client.h). Here each callback
// submits the next insert of a long chain, over the default transport, on a
// thread with a 512 KiB stack. Every delivery runs from the event queue, so
// the stack stays flat; when delivery ran inside Send(), each insert nested
// inside the previous one's callback and the chain overflowed the stack.
TEST(CallbackChainTest, InsertsChainedFromCallbacksRunOnASmallStack) {
  constexpr int kLength = 20'000;
  PastConfig config;
  config.k = 3;
  config.enable_maintenance = false;
  TestDeployment deployment = BuildDeployment(60, 50'000'000, config, 41);
  PastNetwork& net = *deployment.network;
  PastClient client(net, deployment.node_ids.front(), 1ull << 40, 43);

  struct Chain {
    PastClient& client;
    int submitted = 0;
    int stored = 0;
    void Next() {
      client.BeginInsert("chain" + std::to_string(submitted++), 1'000,
                         [this](const ClientInsertResult& r) {
                           stored += r.stored ? 1 : 0;
                           if (submitted < kLength) {
                             Next();
                           }
                         });
    }
  } chain{client};

  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, 512 * 1024), 0);
  pthread_t thread;
  auto run = [](void* arg) -> void* {
    auto* c = static_cast<Chain*>(arg);
    c->Next();
    c->client.WaitAll();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, run, &chain), 0);
  ASSERT_EQ(pthread_join(thread, nullptr), 0);
  pthread_attr_destroy(&attr);

  EXPECT_EQ(chain.submitted, kLength);
  EXPECT_EQ(chain.stored, kLength);
  EXPECT_EQ(net.engine().in_flight(), 0u);
  EXPECT_EQ(net.SnapshotMetrics().GaugeValue("engine.ops_in_flight"), 0.0);
}

}  // namespace
}  // namespace past
