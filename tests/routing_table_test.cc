// Routing table unit tests: slot classification, proximity preference,
// removal, row queries.
#include <gtest/gtest.h>

#include <map>

#include "src/common/rng.h"
#include "src/pastry/routing_table.h"
#include "tests/simple_node_directory.h"

namespace past {
namespace {

TEST(RoutingTableTest, Dimensions) {
  NodeId owner(0xAAAAAAAAAAAAAAAAULL, 0xAAAAAAAAAAAAAAAAULL);
  SimpleNodeDirectory dir;
  RoutingTable rt(owner, 4, dir.view());
  EXPECT_EQ(rt.rows(), 32);
  EXPECT_EQ(rt.columns(), 16);
  EXPECT_EQ(rt.size(), 0u);
}

TEST(RoutingTableTest, ConsiderPlacesInCorrectSlot) {
  NodeId owner(0xA000000000000000ULL, 0);
  SimpleNodeDirectory dir;
  RoutingTable rt(owner, 4, dir.view());
  // Shares no prefix digits; first digit is 0xB -> row 0, column 0xB.
  NodeId other(0xB000000000000000ULL, 0);
  EXPECT_TRUE(rt.Consider(other));
  auto entry = rt.Get(0, 0xB);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(*entry, other);
  // Shares 1 digit (0xA), second digit 0x7 -> row 1, column 7.
  NodeId deeper(0xA700000000000000ULL, 0);
  EXPECT_TRUE(rt.Consider(deeper));
  entry = rt.Get(1, 0x7);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(*entry, deeper);
}

TEST(RoutingTableTest, OwnerNotInserted) {
  NodeId owner(0xA000000000000000ULL, 0);
  SimpleNodeDirectory dir;
  RoutingTable rt(owner, 4, dir.view());
  EXPECT_FALSE(rt.Consider(owner));
  EXPECT_EQ(rt.size(), 0u);
}

TEST(RoutingTableTest, ProximityPreferenceReplacesFartherEntry) {
  NodeId owner(0xA000000000000000ULL, 0);
  std::map<uint64_t, double> distance;
  SimpleNodeDirectory dir(
      [&](const NodeId&, const NodeId& id) { return distance[Uint128Low64(id.value())]; });
  RoutingTable rt(owner, 4, dir.view());
  NodeId far(0xB000000000000000ULL, 1);
  NodeId near(0xB100000000000000ULL, 2);  // same slot (row 0, col 0xB)
  distance[1] = 0.9;
  distance[2] = 0.1;
  EXPECT_TRUE(rt.Consider(far));
  EXPECT_TRUE(rt.Consider(near));
  EXPECT_EQ(*rt.Get(0, 0xB), near);
  // A farther candidate does not displace the incumbent.
  NodeId farther(0xB200000000000000ULL, 3);
  distance[3] = 0.95;
  EXPECT_FALSE(rt.Consider(farther));
  EXPECT_EQ(*rt.Get(0, 0xB), near);
}

TEST(RoutingTableTest, RemoveClearsSlot) {
  NodeId owner(0xA000000000000000ULL, 0);
  SimpleNodeDirectory dir;
  RoutingTable rt(owner, 4, dir.view());
  NodeId other(0xB000000000000000ULL, 0);
  rt.Consider(other);
  EXPECT_TRUE(rt.Remove(other));
  EXPECT_FALSE(rt.Get(0, 0xB).has_value());
  EXPECT_FALSE(rt.Remove(other));
  EXPECT_EQ(rt.size(), 0u);
}

TEST(RoutingTableTest, RowListsPopulatedEntries) {
  NodeId owner(0xA000000000000000ULL, 0);
  SimpleNodeDirectory dir;
  RoutingTable rt(owner, 4, dir.view());
  rt.Consider(NodeId(0xB000000000000000ULL, 0));
  rt.Consider(NodeId(0xC000000000000000ULL, 0));
  rt.Consider(NodeId(0xA100000000000000ULL, 0));  // row 1
  EXPECT_EQ(rt.Row(0).size(), 2u);
  EXPECT_EQ(rt.Row(1).size(), 1u);
  EXPECT_TRUE(rt.Row(5).empty());
  EXPECT_EQ(rt.Entries().size(), 3u);
}

TEST(RoutingTableTest, EntriesSharePrefixWithOwnerInvariant) {
  Rng rng(21);
  NodeId owner(rng.NextU64(), rng.NextU64());
  SimpleNodeDirectory dir;
  RoutingTable rt(owner, 4, dir.view());
  for (int i = 0; i < 500; ++i) {
    rt.Consider(NodeId(rng.NextU64(), rng.NextU64()));
  }
  // Every populated slot (row r, col c) holds a node sharing exactly r
  // digits with the owner and whose digit r is c (and differs from owner's).
  for (int r = 0; r < rt.rows(); ++r) {
    for (int c = 0; c < rt.columns(); ++c) {
      auto entry = rt.Get(r, c);
      if (!entry) {
        continue;
      }
      EXPECT_EQ(entry->SharedPrefixLength(owner, 4), r);
      EXPECT_EQ(entry->Digit(r, 4), c);
      EXPECT_NE(owner.Digit(r, 4), c);
    }
  }
}

}  // namespace
}  // namespace past
