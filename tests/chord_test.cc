// Chord substrate tests: interval arithmetic, lookup correctness against the
// ring oracle, logarithmic hops, joins folded in by stabilization.
#include <gtest/gtest.h>

#include <cmath>

#include "src/chord/chord_network.h"
#include "src/common/rng.h"

namespace past {
namespace {

NodeId Id(uint64_t v) { return NodeId(0, v); }

TEST(ChordIntervalTest, HalfOpenSemantics) {
  EXPECT_TRUE(ChordNode::InInterval(Id(5), Id(1), Id(10)));
  EXPECT_TRUE(ChordNode::InInterval(Id(10), Id(1), Id(10)));   // inclusive right
  EXPECT_FALSE(ChordNode::InInterval(Id(1), Id(1), Id(10)));   // exclusive left
  EXPECT_FALSE(ChordNode::InInterval(Id(11), Id(1), Id(10)));
}

TEST(ChordIntervalTest, WrapsAroundRing) {
  NodeId high(~0ULL, ~0ULL - 5);
  NodeId low(0, 5);
  EXPECT_TRUE(ChordNode::InInterval(Id(1), high, low));
  EXPECT_TRUE(ChordNode::InInterval(NodeId(~0ULL, ~0ULL), high, low));
  EXPECT_FALSE(ChordNode::InInterval(Id(100), high, low));
  // Degenerate full-circle interval.
  EXPECT_TRUE(ChordNode::InInterval(Id(42), Id(7), Id(7)));
}

TEST(ChordNodeTest, FingerStartsDouble) {
  ChordNode node(Id(0), Coordinate{}, 4);
  EXPECT_EQ(node.FingerStart(0), Id(1));
  EXPECT_EQ(node.FingerStart(10), Id(1024));
  // Wraparound at the top bit.
  ChordNode high(NodeId(MakeUint128(1ULL << 63, 0) * 2 - 1), Coordinate{}, 4);  // 2^127-ish
  NodeId wrapped = high.FingerStart(127);
  EXPECT_LT(wrapped.value(), high.id().value());
}

class ChordNetworkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<ChordNetwork>(/*successor_list_length=*/8, /*seed=*/400);
    network_->BuildInitialNetwork(200);
  }
  std::unique_ptr<ChordNetwork> network_;
};

TEST_F(ChordNetworkTest, SuccessorInvariantHolds) {
  EXPECT_EQ(network_->CountSuccessorViolations(), 0u);
}

TEST_F(ChordNetworkTest, LookupsFindTheRingSuccessor) {
  Rng rng(401);
  std::vector<NodeId> nodes = network_->live_nodes();
  for (int i = 0; i < 300; ++i) {
    NodeId key(rng.NextU64(), rng.NextU64());
    NodeId origin = nodes[rng.NextBelow(nodes.size())];
    ChordRouteResult route = network_->FindSuccessor(origin, key);
    ASSERT_TRUE(route.succeeded);
    EXPECT_EQ(route.owner(), network_->OwnerOf(key));
  }
}

TEST_F(ChordNetworkTest, HopsAreLogarithmic) {
  Rng rng(402);
  std::vector<NodeId> nodes = network_->live_nodes();
  double total = 0;
  const int trials = 300;
  for (int i = 0; i < trials; ++i) {
    NodeId key(rng.NextU64(), rng.NextU64());
    ChordRouteResult route = network_->FindSuccessor(nodes[rng.NextBelow(nodes.size())], key);
    total += route.hops();
  }
  // Chord average is ~0.5 * log2(N) ≈ 3.8 at N=200; allow generous slack.
  EXPECT_LT(total / trials, std::log2(200.0) + 1.0);
  EXPECT_GT(total / trials, 1.0);
}

TEST_F(ChordNetworkTest, MixedChurnWithStabilizationKeepsInvariant) {
  // Chord's ring is only eventually consistent: periodic stabilization (the
  // real protocol runs it on a timer) is what folds joins into distant
  // successor lists. Interleave joins with maintenance, as deployed Chord
  // does.
  Rng rng(404);
  for (int round = 0; round < 60; ++round) {
    if (rng.NextBool(0.5)) {
      network_->CreateNode();
    }
    if (round % 5 == 4) {
      network_->Stabilize();
    }
  }
  network_->Stabilize();
  EXPECT_EQ(network_->CountSuccessorViolations(), 0u);
}

TEST(ChordSmallTest, TwoNodeRing) {
  ChordNetwork network(4, 405);
  network.BuildInitialNetwork(2);
  std::vector<NodeId> nodes = network.live_nodes();
  EXPECT_EQ(network.CountSuccessorViolations(), 0u);
  Rng rng(406);
  for (int i = 0; i < 50; ++i) {
    NodeId key(rng.NextU64(), rng.NextU64());
    ChordRouteResult route = network.FindSuccessor(nodes[0], key);
    ASSERT_TRUE(route.succeeded);
    EXPECT_EQ(route.owner(), network.OwnerOf(key));
  }
}

TEST(ChordSmallTest, SingleNodeOwnsEverything) {
  ChordNetwork network(4, 407);
  network.BuildInitialNetwork(1);
  std::vector<NodeId> nodes = network.live_nodes();
  Rng rng(408);
  NodeId key(rng.NextU64(), rng.NextU64());
  ChordRouteResult route = network.FindSuccessor(nodes[0], key);
  EXPECT_TRUE(route.succeeded);
  EXPECT_EQ(route.owner(), nodes[0]);
}

TEST(ChordLocalityTest, NoProximityBiasUnlikePastry) {
  // The PAST paper's point (section 6): Chord makes no explicit effort at
  // network locality. Per-hop distances should look like random pairs.
  ChordNetwork network(8, 409);
  network.BuildInitialNetwork(300);
  Rng rng(410);
  std::vector<NodeId> nodes = network.live_nodes();
  double hop_distance = 0.0;
  uint64_t hops = 0;
  for (int i = 0; i < 500; ++i) {
    NodeId key(rng.NextU64(), rng.NextU64());
    ChordRouteResult route = network.FindSuccessor(nodes[rng.NextBelow(nodes.size())], key);
    hop_distance += route.distance;
    hops += static_cast<uint64_t>(route.hops());
  }
  double random_distance = 0.0;
  const int pairs = 2000;
  for (int i = 0; i < pairs; ++i) {
    NodeId a = nodes[rng.NextBelow(nodes.size())];
    NodeId b = nodes[rng.NextBelow(nodes.size())];
    if (a != b) {
      random_distance += network.Distance(a, b);
    }
  }
  double avg_hop = hop_distance / static_cast<double>(hops);
  double avg_random = random_distance / pairs;
  // Within 15% of the random-pair average (no locality).
  EXPECT_NEAR(avg_hop, avg_random, avg_random * 0.15);
}

}  // namespace
}  // namespace past
