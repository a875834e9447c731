// The emulated topology: the unit-torus metric, and the seed grid that
// PastryNetwork::NearestLiveTo searches for a joining node's proximally
// nearest live node. Grid state is built through Join and FailNode only.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/net/coordinate.h"
#include "src/pastry/network.h"

namespace past {
namespace {

// The live node closest to `point` under the (distance, id) order.
NodeId LinearNearest(const std::vector<std::pair<NodeId, Coordinate>>& placed,
                     const Coordinate& point) {
  NodeId best;
  double best_distance = -1.0;
  for (const auto& [id, location] : placed) {
    double d = TorusDistance(location, point);
    if (best_distance < 0.0 || d < best_distance || (d == best_distance && id < best)) {
      best = id;
      best_distance = d;
    }
  }
  return best;
}

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
  PastryNetwork net(PastryConfig{}, 11);
  Rng rng(1);
  NodeId a(1, 0), b(2, 0);
  Coordinate ca{rng.NextDouble(), rng.NextDouble()};
  Coordinate cb{rng.NextDouble(), rng.NextDouble()};
  ASSERT_TRUE(net.Join(a, ca));
  ASSERT_TRUE(net.Join(b, cb));
  EXPECT_EQ(net.live_count(), 2u);
  double d = net.DistanceOr(a, b, -1.0);
  EXPECT_EQ(d, TorusDistance(ca, cb));
  EXPECT_DOUBLE_EQ(d, net.DistanceOr(b, a, -1.0));
  EXPECT_EQ(net.NearestLiveTo(ca), a);
  EXPECT_EQ(net.NearestLiveTo(cb), b);
}

TEST(TopologyTest, PlaceWrapsIntoUnitTorus) {
  Coordinate c = WrapToTorus({1.25, -0.25});
  EXPECT_DOUBLE_EQ(c.x, 0.25);
  EXPECT_DOUBLE_EQ(c.y, 0.75);
  Coordinate in_range = WrapToTorus({0.5, 0.0});
  EXPECT_DOUBLE_EQ(in_range.x, 0.5);
  EXPECT_DOUBLE_EQ(in_range.y, 0.0);
  // Join wraps too: a node placed off the torus is found at its wrapped
  // coordinate, ahead of one across the torus from it.
  PastryNetwork net(PastryConfig{}, 12);
  NodeId a(1, 1), far(2, 2);
  ASSERT_TRUE(net.Join(a, {1.25, -0.25}));
  ASSERT_TRUE(net.Join(far, {0.75, 0.25}));
  EXPECT_EQ(net.NearestLiveTo({0.26, 0.74}), a);
  EXPECT_EQ(net.NearestLiveTo({0.74, 0.26}), far);
}

TEST(TopologyTest, NearestToFindsClosest) {
  PastryNetwork net(PastryConfig{}, 13);
  NodeId near(1, 1), far(2, 2);
  ASSERT_TRUE(net.Join(near, {0.1, 0.1}));
  ASSERT_TRUE(net.Join(far, {0.9, 0.9}));
  EXPECT_EQ(net.NearestLiveTo({0.12, 0.12}), near);
  EXPECT_EQ(net.NearestLiveTo({0.88, 0.88}), far);
}

TEST(TopologyTest, NearestToBreaksTiesTowardSmallerId) {
  // Two nodes equidistant from the probe, in different cells, joined in
  // both orders: the smaller id wins either way.
  for (bool small_first : {true, false}) {
    PastryNetwork net(PastryConfig{}, 14);
    NodeId small(1, 0), large(2, 0);
    if (small_first) {
      ASSERT_TRUE(net.Join(small, {0.25, 0.5}));
      ASSERT_TRUE(net.Join(large, {0.75, 0.5}));
    } else {
      ASSERT_TRUE(net.Join(large, {0.75, 0.5}));
      ASSERT_TRUE(net.Join(small, {0.25, 0.5}));
    }
    EXPECT_EQ(net.NearestLiveTo({0.5, 0.5}), small) << "small_first " << small_first;
  }
}

TEST(TopologyTest, RemoveForgetsNode) {
  PastryNetwork net(PastryConfig{}, 15);
  Rng rng(4);
  NodeId a(1, 1), b(2, 2), c(3, 3);
  Coordinate ca{rng.NextDouble(), rng.NextDouble()};
  ASSERT_TRUE(net.Join(a, ca));
  // b shares a's cell and location; c sits across the torus.
  ASSERT_TRUE(net.Join(b, ca));
  ASSERT_TRUE(net.Join(c, {ca.x + 0.5, ca.y + 0.5}));
  EXPECT_EQ(net.NearestLiveTo(ca), a);
  net.FailNode(a);
  EXPECT_EQ(net.live_count(), 2u);
  EXPECT_EQ(net.NearestLiveTo(ca), b);
  net.FailNode(b);
  EXPECT_EQ(net.NearestLiveTo(ca), c);
  // Failing an id that is not live changes nothing; neither does one that
  // was never joined.
  net.FailNode(b);
  net.FailNode(NodeId(4, 4));
  EXPECT_EQ(net.live_count(), 1u);
  EXPECT_EQ(net.NearestLiveTo(ca), c);
  // An emptied network answers the default id.
  net.FailNode(c);
  EXPECT_EQ(net.live_count(), 0u);
  EXPECT_EQ(net.NearestLiveTo(ca), NodeId());
}

TEST(TopologyTest, NearestToMatchesLinearScan) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    PastryNetwork net(PastryConfig{}, seed);
    Rng rng(seed * 977);
    std::vector<std::pair<NodeId, Coordinate>> placed;
    for (int i = 0; i < 400; ++i) {
      NodeId id(rng.NextU64(), rng.NextU64());
      Coordinate location{rng.NextDouble(), rng.NextDouble()};
      ASSERT_TRUE(net.Join(id, location));
      placed.emplace_back(id, location);
    }
    // Interleave failures so the grid's per-cell lists see churn.
    for (int i = 0; i < 100; ++i) {
      size_t victim = rng.NextBelow(placed.size());
      net.FailNode(placed[victim].first);
      placed.erase(placed.begin() + static_cast<long>(victim));
    }
    for (int probe = 0; probe < 200; ++probe) {
      Coordinate point{rng.NextDouble(), rng.NextDouble()};
      ASSERT_EQ(net.NearestLiveTo(point), LinearNearest(placed, point))
          << "seed " << seed << " probe " << probe;
    }
  }
}

TEST(TopologyTest, RecoveredNodeIsFoundAtItsNewCoordinate) {
  PastryNetwork net(PastryConfig{}, 16);
  Rng rng(17);
  std::vector<std::pair<NodeId, Coordinate>> placed;
  for (int i = 0; i < 200; ++i) {
    NodeId id(rng.NextU64(), rng.NextU64());
    Coordinate location{rng.NextDouble(), rng.NextDouble()};
    ASSERT_TRUE(net.Join(id, location));
    placed.emplace_back(id, location);
  }
  const auto [x, old_location] = placed[7];
  net.FailNode(x);
  // RecoverNode draws the fresh coordinate from the network's rng first.
  Rng predict = net.rng();
  const Coordinate fresh{predict.NextDouble(), predict.NextDouble()};
  ASSERT_TRUE(net.RecoverNode(x));
  placed[7].second = fresh;
  const auto& [y, y_location] = placed[8];
  ASSERT_EQ(net.DistanceOr(x, y, -1.0), TorusDistance(fresh, y_location));

  EXPECT_EQ(net.NearestLiveTo(fresh), x);
  ASSERT_NE(LinearNearest(placed, old_location), x);
  EXPECT_EQ(net.NearestLiveTo(old_location), LinearNearest(placed, old_location));
  for (int probe = 0; probe < 200; ++probe) {
    Coordinate point{rng.NextDouble(), rng.NextDouble()};
    ASSERT_EQ(net.NearestLiveTo(point), LinearNearest(placed, point)) << "probe " << probe;
  }
}

}  // namespace
}  // namespace past
