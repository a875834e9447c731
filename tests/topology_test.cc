#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/net/topology.h"

namespace past {
namespace {

TEST(TorusDistanceTest, BasicAndWraparound) {
  EXPECT_DOUBLE_EQ(TorusDistance({0.0, 0.0}, {0.3, 0.4}), 0.5);
  // Wraparound: 0.05 and 0.95 are 0.1 apart on the torus.
  EXPECT_NEAR(TorusDistance({0.05, 0.5}, {0.95, 0.5}), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(TorusDistance({0.2, 0.2}, {0.2, 0.2}), 0.0);
}

TEST(TorusDistanceTest, MaximumIsHalfDiagonal) {
  // No two points can be farther than sqrt(0.5^2 + 0.5^2).
  double max = TorusDistance({0.0, 0.0}, {0.5, 0.5});
  EXPECT_NEAR(max, std::sqrt(0.5), 1e-12);
}

TEST(TopologyTest, PlaceAndDistance) {
  Topology topo;
  Rng rng(1);
  NodeId a(1, 0), b(2, 0);
  Coordinate ca = topo.Place(a, {rng.NextDouble(), rng.NextDouble()});
  Coordinate cb = topo.Place(b, {rng.NextDouble(), rng.NextDouble()});
  EXPECT_EQ(topo.size(), 2u);
  double d = TorusDistance(ca, cb);
  EXPECT_GE(d, 0.0);
  EXPECT_DOUBLE_EQ(d, TorusDistance(cb, ca));
  EXPECT_EQ(topo.NearestTo(ca), a);
  EXPECT_EQ(topo.NearestTo(cb), b);
}

TEST(TopologyTest, PlaceWrapsIntoUnitTorus) {
  Topology topo;
  NodeId a(1, 1);
  Coordinate c = topo.Place(a, {1.25, -0.25});
  EXPECT_DOUBLE_EQ(c.x, 0.25);
  EXPECT_DOUBLE_EQ(c.y, 0.75);
  Coordinate in_range = WrapToTorus({0.5, 0.0});
  EXPECT_DOUBLE_EQ(in_range.x, 0.5);
  EXPECT_DOUBLE_EQ(in_range.y, 0.0);
  EXPECT_EQ(topo.NearestTo({0.26, 0.74}), a);
}

TEST(TopologyTest, NearestToFindsClosest) {
  Topology topo;
  NodeId near(1, 1), far(2, 2);
  topo.Place(near, {0.1, 0.1});
  topo.Place(far, {0.9, 0.9});
  EXPECT_EQ(topo.NearestTo({0.12, 0.12}), near);
  EXPECT_EQ(topo.NearestTo({0.88, 0.88}), far);
}

TEST(TopologyTest, NearestToBreaksTiesTowardSmallerId) {
  // Two endpoints equidistant from the probe, in different cells, placed in
  // both orders: the smaller id wins either way.
  for (bool small_first : {true, false}) {
    Topology topo;
    NodeId small(1, 0), large(2, 0);
    if (small_first) {
      topo.Place(small, {0.25, 0.5});
      topo.Place(large, {0.75, 0.5});
    } else {
      topo.Place(large, {0.75, 0.5});
      topo.Place(small, {0.25, 0.5});
    }
    EXPECT_EQ(topo.NearestTo({0.5, 0.5}), small) << "small_first " << small_first;
  }
}

TEST(TopologyTest, RemoveForgetsNode) {
  Topology topo;
  Rng rng(4);
  NodeId a(1, 1), b(2, 2), c(3, 3);
  Coordinate ca = topo.Place(a, {rng.NextDouble(), rng.NextDouble()});
  // b shares a's cell and location; c sits across the torus.
  Coordinate cb = topo.Place(b, ca);
  Coordinate cc = topo.Place(c, {ca.x + 0.5, ca.y + 0.5});
  EXPECT_EQ(topo.NearestTo(ca), a);
  topo.Remove(a, ca);
  EXPECT_EQ(topo.size(), 2u);
  EXPECT_EQ(topo.NearestTo(ca), b);
  topo.Remove(b, cb);
  EXPECT_EQ(topo.NearestTo(ca), c);
  // Removing an id that is not placed changes nothing.
  topo.Remove(b, cb);
  EXPECT_EQ(topo.size(), 1u);
  EXPECT_EQ(topo.NearestTo(ca), c);
  // An emptied topology answers the default id.
  topo.Remove(c, cc);
  EXPECT_EQ(topo.size(), 0u);
  EXPECT_EQ(topo.NearestTo(ca), NodeId());
}

}  // namespace
}  // namespace past
