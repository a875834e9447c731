// The maintenance sweep's skip-healthy split (paper section 3.5 repair):
// RepairOp::NeedsRepair must answer false only for files whose RepairFile is
// a no-op — checked here with client ops in flight over SimTransport, where
// any stray send or Settle() would show up in the transport ledger and the
// event queue — and MaintenanceSweep(&pool), which diagnoses every file in
// parallel before repairing the flagged ones serially, must reach exactly
// the serial sweep's state on a quiescent network and refuse to run on a
// busy one.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/harness/experiment.h"
#include "src/past/client.h"
#include "src/past/ops/repair_op.h"
#include "src/sim/event_queue.h"
#include "src/sim/invariant_checker.h"

namespace past {
namespace {

// Everything a repair could touch: every store's sorted contents and usage,
// the network's metrics registry, the transport ledger, and the event queue.
std::string Observe(PastNetwork& net, const EventQueue& queue) {
  std::ostringstream out;
  out << NetworkStateFingerprint(net) << '\n';
  out << obs::MetricsJson(net.metrics().Snapshot()) << '\n';
  const TransportStats& s = net.transport().stats();
  out << s.hops() << ' ' << s.messages() << ' ' << s.rpcs() << ' ' << s.bytes_sent() << ' '
      << s.total_sends() << ' ' << s.total_distance() << '\n';
  out << net.transport().InFlightDeliveries() << ' ' << queue.LiveCount() << ' ' << queue.now();
  return out.str();
}

// Every file any live node holds a replica of or a pointer for, sorted.
std::vector<FileId> TrackedFiles(const PastNetwork& net) {
  std::set<FileId> files;
  for (const NodeId& id : net.overlay().live_nodes()) {
    const PastNode* pn = net.storage_node(id);
    if (pn == nullptr) {
      continue;
    }
    for (const auto& [f, entry] : pn->store().replicas()) {
      (void)entry;
      files.insert(f);
    }
    for (const auto& [f, ptr] : pn->store().pointers()) {
      (void)ptr;
      files.insert(f);
    }
  }
  return {files.begin(), files.end()};
}

// A small network with maintenance off, so churn leaves repair work behind:
// inserts fill it, then nodes fail and join without any repair running.
class ChurnedNetwork {
 public:
  ChurnedNetwork(uint64_t seed, double drop_probability) {
    PastConfig config;
    config.k = 4;
    config.enable_maintenance = false;
    deployment_ = BuildDeployment(70, 1'500'000, config, seed);
    SimTransport::Options options;
    options.latency = LatencyModel::Lan();
    options.faults.drop_probability = drop_probability;
    options.seed = seed + 1;
    sim_ = &net().UseSimTransport(queue_, options);
    client_ = std::make_unique<PastClient>(net(), deployment_.node_ids.front(), 1ull << 40,
                                           seed + 2);
    Rng rng(seed + 3);
    for (int i = 0; i < 90; ++i) {
      client_->Insert("file-" + std::to_string(i), 5'000 + rng.NextBelow(60'000));
    }
    for (int i = 0; i < 6; ++i) {
      std::vector<NodeId> live = net().overlay().live_nodes();
      net().FailStorageNode(live[rng.NextBelow(live.size())]);
    }
    for (int i = 0; i < 4; ++i) {
      net().AddStorageNode(1'500'000);
    }
  }

  PastNetwork& net() { return *deployment_.network; }
  EventQueue& queue() { return queue_; }
  SimTransport& sim() { return *sim_; }
  PastClient& client() { return *client_; }

  // Submits inserts and pumps until at least one delivery is in flight.
  void StartOps(int count) {
    for (int i = 0; i < count; ++i) {
      client_->BeginInsert("inflight-" + std::to_string(i), 20'000, nullptr);
    }
    while (sim_->InFlightDeliveries() == 0 && client_->Poll()) {
    }
  }

 private:
  TestDeployment deployment_;
  EventQueue queue_;
  SimTransport* sim_ = nullptr;
  std::unique_ptr<PastClient> client_;
};

TEST(MaintenanceSweepTest, HealthyVerdictMeansRepairIsANoOp) {
  for (uint64_t seed : {5ull, 6ull, 7ull}) {
    ChurnedNetwork world(seed, /*drop_probability=*/0.0);
    world.StartOps(4);
    ASSERT_GT(world.sim().InFlightDeliveries(), 0u) << "seed " << seed;
    RepairOp repair(world.net());
    size_t healthy = 0;
    size_t flagged = 0;
    for (const FileId& f : TrackedFiles(world.net())) {
      if (repair.NeedsRepair(f)) {
        ++flagged;
        continue;
      }
      ++healthy;
      std::string before = Observe(world.net(), world.queue());
      repair.RepairFile(f);
      EXPECT_EQ(Observe(world.net(), world.queue()), before)
          << "seed " << seed << " file " << f.ToHex();
    }
    // Churn without maintenance leaves both kinds behind.
    EXPECT_GT(healthy, 0u) << "seed " << seed;
    EXPECT_GT(flagged, 0u) << "seed " << seed;
    world.client().WaitAll();
  }
}

TEST(MaintenanceSweepTest, PoolSweepMatchesSerialSweep) {
  for (uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    for (size_t workers : {size_t{1}, size_t{3}}) {
      // Message loss makes some repairs fail, which exercises the transport
      // RNG: both sweeps must draw from it identically.
      ChurnedNetwork serial(seed, /*drop_probability=*/0.05);
      ChurnedNetwork pooled(seed, /*drop_probability=*/0.05);
      serial.StartOps(3);
      pooled.StartOps(3);
      serial.client().WaitAll();
      pooled.client().WaitAll();
      ASSERT_TRUE(pooled.sim().Idle());
      const std::string churned = Observe(serial.net(), serial.queue());
      ASSERT_EQ(Observe(pooled.net(), pooled.queue()), churned);

      ThreadPool pool(workers);
      serial.net().MaintenanceSweep();
      pooled.net().MaintenanceSweep(&pool);
      const std::string swept = Observe(serial.net(), serial.queue());
      EXPECT_NE(swept, churned) << "seed " << seed << ": the sweep had nothing to do";
      EXPECT_EQ(Observe(pooled.net(), pooled.queue()), swept)
          << "seed " << seed << " workers " << workers;
    }
  }
}

TEST(MaintenanceSweepTest, PoolSweepRefusesABusyNetwork) {
  ChurnedNetwork world(21, /*drop_probability=*/0.0);
  ThreadPool pool(2);

  world.StartOps(2);
  ASSERT_GT(world.sim().InFlightDeliveries(), 0u);
  std::string before = Observe(world.net(), world.queue());
  EXPECT_THROW(world.net().MaintenanceSweep(&pool), std::logic_error);
  EXPECT_EQ(Observe(world.net(), world.queue()), before);
  world.client().WaitAll();

  // A pending timer would fire inside a repair's Settle() just the same.
  world.queue().ScheduleAfter(5, [] {});
  EXPECT_THROW(world.net().MaintenanceSweep(&pool), std::logic_error);
  world.queue().RunAll();

  // Open join batches apply queued announcements on read.
  world.net().overlay().BeginJoinBatch();
  EXPECT_THROW(world.net().MaintenanceSweep(&pool), std::logic_error);
  world.net().overlay().EndJoinBatch();

  EXPECT_NO_THROW(world.net().MaintenanceSweep(&pool));
}

}  // namespace
}  // namespace past
