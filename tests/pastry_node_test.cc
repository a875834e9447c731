// Unit tests for PastryNode::NextHop — the three forwarding cases of the
// Pastry algorithm (paper section 2.1), exercised on hand-built node state
// rather than a live overlay.
#include <gtest/gtest.h>

#include "src/pastry/node.h"
#include "tests/simple_node_directory.h"

namespace past {
namespace {

PastryConfig SmallConfig() {
  PastryConfig config;
  config.b = 4;
  config.leaf_set_size = 4;
  config.neighborhood_size = 4;
  return config;
}

TEST(PastryNodeTest, SelfIsDestinationWhenAlone) {
  SimpleNodeDirectory dir;
  PastryNode node(NodeId(1, 0), SmallConfig(), dir.view());
  EXPECT_FALSE(node.NextHop(NodeId(2, 0)).has_value());
}

TEST(PastryNodeTest, LeafSetCaseDeliversToClosestMember) {
  // Key inside the leaf set range: forward to the numerically closest
  // member, or stop if we are it.
  NodeId self(0, 1000);
  SimpleNodeDirectory dir;
  PastryNode node(self, SmallConfig(), dir.view());
  node.Learn(NodeId(0, 900));
  node.Learn(NodeId(0, 1100));

  auto hop = node.NextHop(NodeId(0, 1090));
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, NodeId(0, 1100));

  // Key closest to ourselves: we are the destination.
  EXPECT_FALSE(node.NextHop(NodeId(0, 1010)).has_value());
}

TEST(PastryNodeTest, RoutingTableCaseExtendsPrefix) {
  // Key far outside the leaf set: use the routing-table entry whose prefix
  // is one digit longer.
  NodeId self(0xAAAA000000000000ULL, 0);
  SimpleNodeDirectory dir;
  PastryNode node(self, SmallConfig(), dir.view());
  NodeId leaf_a(0xAAAA000000000001ULL, 1);
  NodeId leaf_b(0xAAA9FFFFFFFFFFFFULL, 2);
  node.Learn(leaf_a);
  node.Learn(leaf_b);
  NodeId towards_b(0xB000000000000000ULL, 0);
  node.Learn(towards_b);

  NodeId key(0xB123456789ABCDEFULL, 0);
  auto hop = node.NextHop(key);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, towards_b);
}

TEST(PastryNodeTest, RareCaseUsesNumericallyCloserFallback) {
  // No routing-table entry for the key's digit; the node must fall back to
  // any known node with >= shared prefix that is numerically closer.
  NodeId self(0xA000000000000000ULL, 0);
  SimpleNodeDirectory dir;
  PastryNode node(self, SmallConfig(), dir.view());
  // A node sharing 0 digits but numerically closer to the key than we are.
  NodeId closer(0xC000000000000000ULL, 0);
  node.routing_table().Consider(closer);
  // Key with first digit 0xD: slot (0, 0xD) is empty; 0xC... is closer.
  NodeId key(0xD000000000000000ULL, 0);
  // Remove the direct entry to force the fallback: slot (0,0xC) holds
  // `closer`, while slot (0,0xD) is empty. Covers(key) is false (no leaves).
  auto hop = node.NextHop(key);
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, closer);
}

TEST(PastryNodeTest, DeadLeafIsForgottenAndSkipped) {
  NodeId self(0, 1000);
  SimpleNodeDirectory dir;
  PastryNode node(self, SmallConfig(), dir.view());
  NodeId dead(0, 1100);
  NodeId live(0, 1200);
  node.Learn(dead);
  node.Learn(live);
  dir.SetAlive(dead, false);

  auto hop = node.NextHop(NodeId(0, 1101));
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, live);
  EXPECT_FALSE(node.leaf_set().Contains(dead));
}

TEST(PastryNodeTest, DeadRoutingEntryFallsThrough) {
  NodeId self(0xA000000000000000ULL, 0);
  SimpleNodeDirectory dir;
  PastryNode node(self, SmallConfig(), dir.view());
  NodeId dead(0xB000000000000000ULL, 0);
  NodeId alt(0xB800000000000000ULL, 0);  // also digit 0xB... same slot; keep distinct slot
  node.routing_table().Consider(dead);
  node.neighborhood().Consider(alt);
  dir.SetAlive(dead, false);

  NodeId key(0xB000000000000001ULL, 0);
  auto hop = node.NextHop(key);
  // The dead entry is purged; the neighborhood's 0xB8 node shares 0 digits
  // with the key (0xB0 vs 0xB8 share one digit actually: digit0 = 0xB).
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, alt);
  EXPECT_FALSE(node.routing_table().Get(0, 0xB).has_value() &&
               *node.routing_table().Get(0, 0xB) == dead);
}

TEST(PastryNodeTest, NeverForwardsFartherFromKey) {
  // Property: any hop returned is strictly numerically closer to the key
  // than this node (the loop-freedom invariant of section 2.3).
  Rng rng(250);
  NodeId self(rng.NextU64(), rng.NextU64());
  SimpleNodeDirectory dir;
  PastryNode node(self, SmallConfig(), dir.view());
  for (int i = 0; i < 200; ++i) {
    node.Learn(NodeId(rng.NextU64(), rng.NextU64()));
  }
  for (int i = 0; i < 500; ++i) {
    NodeId key(rng.NextU64(), rng.NextU64());
    auto hop = node.NextHop(key);
    if (hop) {
      EXPECT_TRUE(hop->CloserTo(key, self))
          << "hop " << hop->ToHex() << " not closer to " << key.ToHex();
    }
  }
}

TEST(PastryNodeTest, RandomizedHopsAreStillValid) {
  Rng rng(251);
  PastryConfig config = SmallConfig();
  config.route_randomization = 1.0;  // always pick a random valid candidate
  NodeId self(rng.NextU64(), rng.NextU64());
  SimpleNodeDirectory dir;
  PastryNode node(self, config, dir.view());
  for (int i = 0; i < 100; ++i) {
    node.Learn(NodeId(rng.NextU64(), rng.NextU64()));
  }
  for (int i = 0; i < 300; ++i) {
    NodeId key(rng.NextU64(), rng.NextU64());
    auto hop = node.NextHop(key, &rng);
    if (hop) {
      EXPECT_TRUE(hop->CloserTo(key, self));
      EXPECT_GE(hop->SharedPrefixLength(key, config.b), self.SharedPrefixLength(key, config.b));
    }
  }
}

TEST(PastryNodeTest, LearnAndForgetRoundTrip) {
  SimpleNodeDirectory dir;
  PastryNode node(NodeId(1, 1), SmallConfig(), dir.view());
  NodeId other(2, 2);
  node.Learn(other);
  EXPECT_TRUE(node.leaf_set().Contains(other));
  node.Forget(other);
  EXPECT_FALSE(node.leaf_set().Contains(other));
  EXPECT_TRUE(node.routing_table().Entries().empty());
  EXPECT_FALSE(node.neighborhood().Contains(other));
}

TEST(PastryNodeTest, LearnSelfIsNoop) {
  SimpleNodeDirectory dir;
  PastryNode node(NodeId(1, 1), SmallConfig(), dir.view());
  node.Learn(NodeId(1, 1));
  EXPECT_EQ(node.leaf_set().size(), 0u);
  EXPECT_EQ(node.routing_table().size(), 0u);
}

}  // namespace
}  // namespace past
