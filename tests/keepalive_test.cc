// Timed keep-alive integration (paper: unresponsiveness period T) and
// routing-table repair tests.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/net/sim_transport.h"
#include "src/pastry/keepalive.h"

namespace past {
namespace {

// A zero-latency, fault-free fabric: every probe and ack lands within the
// round that sent it, so with timeout 0 a dead member is presumed failed by
// the first round that probes it.
SimTransport::Options InstantFabric() {
  SimTransport::Options options;
  options.latency = LatencyModel{0.0, 0.0, 1250.0};
  return options;
}

TEST(KeepAliveDriverTest, DetectsSilentFailureWithinOnePeriod) {
  PastryConfig config;
  PastryNetwork network(config, 200);
  network.BuildInitialNetwork(60);
  EventQueue queue;
  SimTransport transport(queue, InstantFabric(), &network.stats());
  KeepAliveDriver driver(queue, network, transport, /*period=*/1000, /*timeout=*/0);

  std::vector<NodeId> nodes = network.live_nodes();
  queue.RunUntil(500);  // mid-period
  network.FailNodeSilently(nodes[7]);

  // The failure happened at t=500; the next probe round is at t=1000.
  queue.RunUntil(999);
  EXPECT_EQ(driver.failures_detected(), 0u);
  queue.RunUntil(1000);
  EXPECT_EQ(driver.failures_detected(), 1u);
  EXPECT_EQ(network.CountLeafSetViolations(), 0u);
}

TEST(KeepAliveDriverTest, PeriodicRoundsKeepRunning) {
  PastryConfig config;
  PastryNetwork network(config, 201);
  network.BuildInitialNetwork(30);
  EventQueue queue;
  SimTransport transport(queue, InstantFabric(), &network.stats());
  KeepAliveDriver driver(queue, network, transport, 100, /*timeout=*/0);
  queue.RunUntil(1050);
  EXPECT_EQ(driver.rounds_run(), 10u);
}

TEST(KeepAliveDriverTest, StopCancelsFutureRounds) {
  PastryConfig config;
  PastryNetwork network(config, 202);
  network.BuildInitialNetwork(30);
  EventQueue queue;
  SimTransport transport(queue, InstantFabric(), &network.stats());
  KeepAliveDriver driver(queue, network, transport, 100, /*timeout=*/0);
  queue.RunUntil(250);
  EXPECT_EQ(driver.rounds_run(), 2u);
  driver.Stop();
  queue.RunUntil(2000);
  EXPECT_EQ(driver.rounds_run(), 2u);
  EXPECT_TRUE(queue.empty());
}

TEST(KeepAliveDriverTest, ManySilentFailuresRepairedOverTime) {
  PastryConfig config;
  PastryNetwork network(config, 203);
  network.BuildInitialNetwork(100);
  EventQueue queue;
  SimTransport transport(queue, InstantFabric(), &network.stats());
  KeepAliveDriver driver(queue, network, transport, 1000, /*timeout=*/0);
  Rng rng(204);
  // One silent failure per period, for 20 periods.
  for (int i = 0; i < 20; ++i) {
    std::vector<NodeId> nodes = network.live_nodes();
    network.FailNodeSilently(nodes[rng.NextBelow(nodes.size())]);
    queue.RunUntil(queue.now() + 1000);
  }
  EXPECT_EQ(driver.failures_detected(), 20u);
  EXPECT_EQ(network.live_count(), 80u);
  EXPECT_EQ(network.CountLeafSetViolations(), 0u);
}

TEST(KeepAliveDriverTest, RejoinedMemberGetsAFullTimeoutAfterItsFirstNewMiss) {
  PastryConfig config;
  PastryNetwork network(config, 208);
  network.BuildInitialNetwork(40);
  EventQueue queue;
  SimTransport transport(queue, InstantFabric(), &network.stats());
  constexpr SimTime kPeriod = 1000;
  constexpr SimTime kTimeout = 3 * kPeriod;
  KeepAliveDriver driver(queue, network, transport, kPeriod, kTimeout);
  const NodeId victim = network.live_nodes()[11];

  // The victim misses the round at t=1000, then leaves every leaf set by
  // another path before its timeout runs out, and comes back.
  queue.RunUntil(500);
  transport.Partition(victim);
  queue.RunUntil(1500);
  network.FailNode(victim);
  transport.Heal(victim);
  queue.RunUntil(2500);
  ASSERT_TRUE(network.RecoverNode(victim));

  // Cut off again, its first new miss is the round at t=3000, so it is
  // presumed failed at t=6000 and not a moment earlier.
  transport.Partition(victim);
  queue.RunUntil(5999);
  EXPECT_TRUE(network.IsAlive(victim));
  EXPECT_EQ(driver.failures_detected(), 0u);
  queue.RunUntil(6000);
  EXPECT_FALSE(network.IsAlive(victim));
  EXPECT_EQ(driver.failures_detected(), 1u);
}

TEST(RoutingTableRepairTest, SweepRefillsSlotsAfterFailures) {
  PastryConfig config;
  PastryNetwork network(config, 205);
  network.BuildInitialNetwork(200);
  Rng rng(206);

  // Count populated routing-table slots before and after failures.
  auto populated = [&] {
    size_t total = 0;
    for (const NodeId& id : network.live_nodes()) {
      total += network.node(id)->routing_table().size();
    }
    return total;
  };

  for (int i = 0; i < 40; ++i) {
    std::vector<NodeId> nodes = network.live_nodes();
    network.FailNode(nodes[rng.NextBelow(nodes.size())]);
  }
  size_t after_failures = populated();
  size_t repaired = network.RepairRoutingTables();
  EXPECT_GT(repaired, 0u);
  EXPECT_GT(populated(), after_failures);

  // Routing still lands on the ground-truth closest node afterwards.
  std::vector<NodeId> nodes = network.live_nodes();
  for (int i = 0; i < 100; ++i) {
    NodeId key(rng.NextU64(), rng.NextU64());
    EXPECT_EQ(network.Route(nodes[rng.NextBelow(nodes.size())], key).destination(),
              network.ClosestLive(key));
  }
}

TEST(RoutingTableRepairTest, SweepIsIdempotentOnStableNetwork) {
  PastryConfig config;
  PastryNetwork network(config, 207);
  network.BuildInitialNetwork(100);
  network.RepairRoutingTables();  // first sweep may fill gaps from joins
  // A second sweep right away should find (almost) nothing new.
  size_t second = network.RepairRoutingTables();
  EXPECT_EQ(second, 0u);
}

}  // namespace
}  // namespace past
