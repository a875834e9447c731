#include <gtest/gtest.h>

#include <map>

#include "src/pastry/neighborhood_set.h"
#include "tests/simple_node_directory.h"

namespace past {
namespace {

NodeId Id(uint64_t v) { return NodeId(0, v); }

class NeighborhoodTest : public ::testing::Test {
 protected:
  NeighborhoodTest()
      : dir_([this](const NodeId&, const NodeId& id) { return distance_[id]; }),
        set_(Id(0), 3, dir_.view()) {}

  std::map<NodeId, double> distance_;
  SimpleNodeDirectory dir_;
  NeighborhoodSet set_;
};

TEST_F(NeighborhoodTest, KeepsProximallyClosest) {
  distance_[Id(1)] = 0.5;
  distance_[Id(2)] = 0.1;
  distance_[Id(3)] = 0.3;
  distance_[Id(4)] = 0.2;
  EXPECT_TRUE(set_.Consider(Id(1)));
  EXPECT_TRUE(set_.Consider(Id(2)));
  EXPECT_TRUE(set_.Consider(Id(3)));
  EXPECT_TRUE(set_.Consider(Id(4)));  // evicts Id(1) at distance 0.5
  EXPECT_EQ(set_.size(), 3u);
  EXPECT_FALSE(set_.Contains(Id(1)));
  EXPECT_EQ(set_.members().front(), Id(2));  // sorted by proximity
}

TEST_F(NeighborhoodTest, RejectsOwnerAndDuplicates) {
  distance_[Id(1)] = 0.5;
  EXPECT_FALSE(set_.Consider(Id(0)));
  EXPECT_TRUE(set_.Consider(Id(1)));
  EXPECT_FALSE(set_.Consider(Id(1)));
}

TEST_F(NeighborhoodTest, RejectsFartherThanWorstWhenFull) {
  distance_[Id(1)] = 0.1;
  distance_[Id(2)] = 0.2;
  distance_[Id(3)] = 0.3;
  distance_[Id(4)] = 0.9;
  set_.Consider(Id(1));
  set_.Consider(Id(2));
  set_.Consider(Id(3));
  EXPECT_FALSE(set_.Consider(Id(4)));
}

TEST_F(NeighborhoodTest, RemoveWorks) {
  distance_[Id(1)] = 0.1;
  set_.Consider(Id(1));
  EXPECT_TRUE(set_.Remove(Id(1)));
  EXPECT_FALSE(set_.Remove(Id(1)));
  EXPECT_EQ(set_.size(), 0u);
}

}  // namespace
}  // namespace past
