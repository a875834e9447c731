// Leaf set unit tests: sidedness, capacity eviction, coverage, closest-member
// queries, and the overlap behavior in small rings.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/pastry/leaf_set.h"

namespace past {
namespace {

NodeId Id(uint64_t v) { return NodeId(0, v); }

TEST(LeafSetTest, InsertSplitsBySide) {
  LeafSet ls(Id(100), 2);
  EXPECT_TRUE(ls.Insert(Id(110)));
  EXPECT_TRUE(ls.Insert(Id(90)));
  EXPECT_EQ(ls.larger().front(), Id(110));
  EXPECT_EQ(ls.smaller().front(), Id(90));
}

TEST(LeafSetTest, OwnerNeverInserted) {
  LeafSet ls(Id(100), 2);
  EXPECT_FALSE(ls.Insert(Id(100)));
  EXPECT_EQ(ls.size(), 0u);
}

TEST(LeafSetTest, CapacityKeepsClosest) {
  // Populate both sides fully so ring wraparound cannot park an evicted node
  // on the opposite side (with few nodes both sides legitimately overlap).
  LeafSet ls(Id(100), 2);
  ls.Insert(Id(90));
  ls.Insert(Id(80));
  ls.Insert(Id(70));
  ls.Insert(Id(130));
  ls.Insert(Id(120));
  ls.Insert(Id(110));  // evicts 130 from the clockwise side
  EXPECT_EQ(ls.larger().size(), 2u);
  EXPECT_TRUE(ls.Contains(Id(110)));
  EXPECT_TRUE(ls.Contains(Id(120)));
  EXPECT_FALSE(ls.Contains(Id(130)));
  // Counterclockwise side keeps its two closest as well.
  EXPECT_TRUE(ls.Contains(Id(90)));
  EXPECT_TRUE(ls.Contains(Id(80)));
  EXPECT_FALSE(ls.Contains(Id(70)));
}

TEST(LeafSetTest, DuplicateInsertIgnored) {
  LeafSet ls(Id(100), 2);
  EXPECT_TRUE(ls.Insert(Id(110)));
  EXPECT_FALSE(ls.Insert(Id(110)));
  EXPECT_EQ(ls.larger().size(), 1u);
}

TEST(LeafSetTest, RemoveWorks) {
  LeafSet ls(Id(100), 2);
  ls.Insert(Id(110));
  EXPECT_TRUE(ls.Remove(Id(110)));
  EXPECT_FALSE(ls.Remove(Id(110)));
  EXPECT_FALSE(ls.Contains(Id(110)));
}

TEST(LeafSetTest, CoversKeyWithinRange) {
  LeafSet ls(Id(100), 2);
  ls.Insert(Id(110));
  ls.Insert(Id(120));
  ls.Insert(Id(90));
  ls.Insert(Id(80));
  EXPECT_TRUE(ls.Covers(Id(100)));
  EXPECT_TRUE(ls.Covers(Id(115)));
  EXPECT_TRUE(ls.Covers(Id(85)));
  EXPECT_TRUE(ls.Covers(Id(120)));
  EXPECT_FALSE(ls.Covers(Id(121)));
  EXPECT_FALSE(ls.Covers(Id(79)));
  EXPECT_FALSE(ls.Covers(NodeId(1ULL << 60, 0)));
}

TEST(LeafSetTest, ClosestToPicksNearestMember) {
  LeafSet ls(Id(100), 2);
  ls.Insert(Id(110));
  ls.Insert(Id(90));
  EXPECT_EQ(ls.ClosestTo(Id(108)), Id(110));
  EXPECT_EQ(ls.ClosestTo(Id(92)), Id(90));
  EXPECT_EQ(ls.ClosestTo(Id(101)), Id(100));  // owner itself
}

TEST(LeafSetTest, WrapAroundSides) {
  // Owner near the top of the ring: successors wrap to small ids.
  NodeId owner(~0ULL, ~0ULL - 10);
  LeafSet ls(owner, 2);
  NodeId successor(0, 5);  // just past the wrap point
  EXPECT_TRUE(ls.Insert(successor));
  EXPECT_FALSE(ls.larger().empty());
  EXPECT_EQ(ls.larger().front(), successor);
  EXPECT_TRUE(ls.Covers(NodeId(0, 1)));
}

TEST(LeafSetTest, SmallRingOverlap) {
  // With fewer nodes than 2*capacity the same node may appear on both sides;
  // All() must deduplicate.
  LeafSet ls(Id(100), 4);
  ls.Insert(Id(200));
  ls.Insert(Id(300));
  std::vector<NodeId> all = ls.All();
  std::set<NodeId> unique(all.begin(), all.end());
  EXPECT_EQ(all.size(), unique.size());
  EXPECT_EQ(unique.size(), 2u);
}

TEST(LeafSetTest, AllExcludesOwner) {
  LeafSet ls(Id(100), 4);
  ls.Insert(Id(110));
  ls.Insert(Id(90));
  for (const NodeId& id : ls.All()) {
    EXPECT_NE(id, Id(100));
  }
}

// Property test: leaf set contents always match a brute-force oracle.
class LeafSetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LeafSetPropertyTest, MatchesBruteForceOracle) {
  Rng rng(GetParam());
  NodeId owner(rng.NextU64(), rng.NextU64());
  const int per_side = 4;
  LeafSet ls(owner, per_side);
  std::vector<NodeId> population;
  for (int i = 0; i < 64; ++i) {
    NodeId id(rng.NextU64(), rng.NextU64());
    population.push_back(id);
    ls.Insert(id);
  }
  // Oracle: sort by clockwise distance from owner; the closest `per_side`
  // in each direction must be exactly the leaf set.
  std::vector<NodeId> by_cw = population;
  std::sort(by_cw.begin(), by_cw.end(), [&](const NodeId& a, const NodeId& b) {
    return owner.ClockwiseDistance(a) < owner.ClockwiseDistance(b);
  });
  for (int i = 0; i < per_side; ++i) {
    EXPECT_EQ(ls.larger()[static_cast<size_t>(i)], by_cw[static_cast<size_t>(i)]);
    EXPECT_EQ(ls.smaller()[static_cast<size_t>(i)], by_cw[by_cw.size() - 1 - static_cast<size_t>(i)]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeafSetPropertyTest, ::testing::Range<uint64_t>(1, 12));

// InLarger() and All() against brute force: small rings, where the two
// sides share members, and 300-node rings, where they do not, each with
// some members removed afterwards (and not replaced, as after a failure
// the leaf set has not repaired yet). Capacities span the inline and the
// spilled layouts.
TEST(LeafSetTest, OverlapTestAndAllMatchBruteForce) {
  Rng rng(2024);
  const int capacities[] = {1, 4, 8, 16, 20};
  size_t overlapping_sets = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const bool small = trial % 2 == 0;
    const size_t ring_size = small ? 2 + rng.NextBelow(39) : 300;
    const int per_side = capacities[rng.NextBelow(std::size(capacities))];
    std::vector<NodeId> ring;
    for (size_t i = 0; i < ring_size; ++i) {
      ring.emplace_back(rng.NextU64(), rng.NextU64());
    }
    LeafSet ls(ring[0], per_side);
    for (size_t i = 1; i < ring.size(); ++i) {
      ls.Insert(ring[i]);
    }
    for (size_t i = 1; i < ring.size(); ++i) {
      if (rng.NextBool(0.15)) {
        ls.Remove(ring[i]);
      }
    }

    std::vector<NodeId> larger(ls.larger().begin(), ls.larger().end());
    std::vector<NodeId> expected_all = larger;
    bool overlap = false;
    for (const NodeId& id : ls.smaller()) {
      if (std::find(larger.begin(), larger.end(), id) == larger.end()) {
        expected_all.push_back(id);
      } else {
        overlap = true;
      }
    }
    for (const NodeId& id : ring) {
      bool in_larger = std::find(larger.begin(), larger.end(), id) != larger.end();
      ASSERT_EQ(ls.InLarger(id), in_larger) << "trial " << trial;
    }
    ASSERT_EQ(ls.All(), expected_all) << "trial " << trial;
    ASSERT_EQ(ls.size(), expected_all.size()) << "trial " << trial;
    if (!small) {
      ASSERT_FALSE(overlap) << "trial " << trial;
    }
    overlapping_sets += overlap ? 1 : 0;
  }
  // The small rings must actually exercise the shared-member path.
  EXPECT_GT(overlapping_sets, 50u);
}

}  // namespace
}  // namespace past
