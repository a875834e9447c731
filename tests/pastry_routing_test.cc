// Pastry overlay routing tests: correctness against the ground-truth oracle,
// logarithmic hop counts, early-stop predicates, and randomized routing.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/pastry/network.h"

namespace past {
namespace {

class PastryRoutingTest : public ::testing::Test {
 protected:
  static constexpr size_t kNodes = 300;

  void SetUp() override {
    PastryConfig config;
    network_ = std::make_unique<PastryNetwork>(config, /*seed=*/7);
    network_->BuildInitialNetwork(kNodes);
  }

  std::unique_ptr<PastryNetwork> network_;
};

TEST_F(PastryRoutingTest, LeafSetsMatchGroundTruth) {
  EXPECT_EQ(network_->CountLeafSetViolations(), 0u);
}

TEST_F(PastryRoutingTest, RoutesReachNumericallyClosestNode) {
  Rng rng(99);
  std::vector<NodeId> nodes = network_->live_nodes();
  for (int i = 0; i < 300; ++i) {
    NodeId key(rng.NextU64(), rng.NextU64());
    NodeId origin = nodes[rng.NextBelow(nodes.size())];
    RouteResult route = network_->Route(origin, key);
    EXPECT_EQ(route.destination(), network_->ClosestLive(key))
        << "key " << key.ToHex() << " from " << origin.ToHex();
  }
}

TEST_F(PastryRoutingTest, HopCountIsLogarithmic) {
  Rng rng(100);
  std::vector<NodeId> nodes = network_->live_nodes();
  double bound = std::ceil(std::log(static_cast<double>(kNodes)) / std::log(16.0));
  double total_hops = 0;
  const int trials = 300;
  for (int i = 0; i < trials; ++i) {
    NodeId key(rng.NextU64(), rng.NextU64());
    NodeId origin = nodes[rng.NextBelow(nodes.size())];
    RouteResult route = network_->Route(origin, key);
    total_hops += route.hops();
    // Individual routes may take an extra leaf-set hop beyond ceil(log_16 N).
    EXPECT_LE(route.hops(), bound + 2);
  }
  EXPECT_LE(total_hops / trials, bound + 0.5);
}

TEST_F(PastryRoutingTest, RouteToOwnKeyTerminatesImmediately) {
  std::vector<NodeId> nodes = network_->live_nodes();
  RouteResult route = network_->Route(nodes[0], nodes[0]);
  EXPECT_EQ(route.hops(), 0);
  EXPECT_EQ(route.destination(), nodes[0]);
}

TEST_F(PastryRoutingTest, StopPredicateTerminatesEarly) {
  Rng rng(101);
  std::vector<NodeId> nodes = network_->live_nodes();
  NodeId origin = nodes[0];
  NodeId key(rng.NextU64(), rng.NextU64());
  // Stop everywhere: the route must end at the origin itself.
  RouteResult route = network_->Route(origin, key, [](const NodeId&) { return true; });
  EXPECT_TRUE(route.stopped_early);
  EXPECT_EQ(route.hops(), 0);
  EXPECT_EQ(route.destination(), origin);
}

TEST_F(PastryRoutingTest, PathHasNoRepeatedNodes) {
  Rng rng(102);
  std::vector<NodeId> nodes = network_->live_nodes();
  for (int i = 0; i < 100; ++i) {
    NodeId key(rng.NextU64(), rng.NextU64());
    RouteResult route = network_->Route(nodes[rng.NextBelow(nodes.size())], key);
    std::vector<NodeId> path = route.path;
    std::sort(path.begin(), path.end());
    EXPECT_EQ(std::unique(path.begin(), path.end()), path.end());
  }
}

TEST_F(PastryRoutingTest, StatsAccumulateHops) {
  network_->stats().Reset();
  std::vector<NodeId> nodes = network_->live_nodes();
  RouteResult route = network_->Route(nodes[0], nodes[nodes.size() / 2]);
  EXPECT_EQ(network_->stats().hops(), static_cast<uint64_t>(route.hops()));
  EXPECT_NEAR(network_->stats().total_distance(), route.distance, 1e-12);
}

TEST(PastryRandomizedRoutingTest, StillReachesDestination) {
  PastryConfig config;
  config.route_randomization = 0.3;
  PastryNetwork network(config, 11);
  network.BuildInitialNetwork(150);
  Rng rng(12);
  std::vector<NodeId> nodes = network.live_nodes();
  for (int i = 0; i < 200; ++i) {
    NodeId key(rng.NextU64(), rng.NextU64());
    NodeId origin = nodes[rng.NextBelow(nodes.size())];
    RouteResult route = network.Route(origin, key);
    EXPECT_EQ(route.destination(), network.ClosestLive(key));
  }
}

TEST(PastryRandomizedRoutingTest, DifferentRoutesTaken) {
  // With randomization, repeated queries should not always take the same
  // path (the paper's defense against malicious nodes on the route).
  PastryConfig config;
  config.route_randomization = 0.5;
  PastryNetwork network(config, 13);
  network.BuildInitialNetwork(200);
  std::vector<NodeId> nodes = network.live_nodes();
  NodeId origin = nodes[0];
  Rng rng(14);
  NodeId key(rng.NextU64(), rng.NextU64());
  std::set<std::vector<NodeId>> distinct_paths;
  for (int i = 0; i < 30; ++i) {
    distinct_paths.insert(network.Route(origin, key).path);
  }
  EXPECT_GT(distinct_paths.size(), 1u);
}

TEST(PastrySmallNetworkTest, TwoNodesRouteToEachOther) {
  PastryConfig config;
  PastryNetwork network(config, 15);
  network.BuildInitialNetwork(2);
  std::vector<NodeId> nodes = network.live_nodes();
  RouteResult route = network.Route(nodes[0], nodes[1]);
  EXPECT_EQ(route.destination(), nodes[1]);
  EXPECT_EQ(route.hops(), 1);
}

TEST(PastrySmallNetworkTest, SingleNodeIsItsOwnDestination) {
  PastryConfig config;
  PastryNetwork network(config, 16);
  network.BuildInitialNetwork(1);
  std::vector<NodeId> nodes = network.live_nodes();
  Rng rng(17);
  NodeId key(rng.NextU64(), rng.NextU64());
  RouteResult route = network.Route(nodes[0], key);
  EXPECT_EQ(route.destination(), nodes[0]);
  EXPECT_EQ(route.hops(), 0);
}

TEST(PastryLocalityTest, RoutingTablePrefersNearbyEntries) {
  // Pastry's locality heuristic: routing table entries should be biased
  // toward proximally close nodes. Compare the average distance of row-0
  // entries against the network-wide average pairwise distance.
  PastryConfig config;
  PastryNetwork network(config, 18);
  network.BuildInitialNetwork(400);
  std::vector<NodeId> nodes = network.live_nodes();

  double entry_distance = 0.0;
  int entry_count = 0;
  for (const NodeId& id : nodes) {
    const PastryNode* node = network.node(id);
    for (const NodeId& entry : node->routing_table().Row(0)) {
      entry_distance += network.DistanceOr(id, entry, 0.0);
      ++entry_count;
    }
  }
  Rng rng(19);
  double random_distance = 0.0;
  const int pairs = 2000;
  for (int i = 0; i < pairs; ++i) {
    NodeId a = nodes[rng.NextBelow(nodes.size())];
    NodeId b = nodes[rng.NextBelow(nodes.size())];
    if (a == b) {
      continue;
    }
    random_distance += network.DistanceOr(a, b, 0.0);
  }
  ASSERT_GT(entry_count, 0);
  double avg_entry = entry_distance / entry_count;
  double avg_random = random_distance / pairs;
  EXPECT_LT(avg_entry, avg_random);
}

}  // namespace
}  // namespace past
