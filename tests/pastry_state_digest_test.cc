// Pins every live node's full Pastry state — routing table (row, column,
// id), neighborhood members in order, and leaf set — after a batched cohort
// build and after an unbatched build followed by failures and recoveries.
// The scale engine's StateFingerprint hashes leaf sets only, so a change to
// the locality heuristic's proximity reads (which slot keeps which
// candidate, which neighbors a node keeps) would slip past it; these
// digests catch it.
//
// Also checks the directory's index-keyed proximity metric and the network's
// id-keyed DistanceOr against coordinates the test records as it joins each
// node, bit for bit, for live, failed and never-interned endpoints.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/sha1.h"
#include "src/pastry/network.h"

namespace past {
namespace {

void HashU32(Sha1& h, uint32_t v) { h.Update(&v, sizeof(v)); }

void HashId(Sha1& h, const NodeId& id) {
  uint64_t words[2] = {Uint128High64(id.value()), Uint128Low64(id.value())};
  h.Update(words, sizeof(words));
}

// Digest of every live node's routing state, in ring order, plus the
// interned-node count (so a change that interns ids it does not store shows
// up too).
std::string StateDigest(const PastryNetwork& net) {
  Sha1 h;
  HashU32(h, static_cast<uint32_t>(net.node_count()));
  for (const NodeId& id : net.live_nodes()) {
    const PastryNode* n = net.node(id);
    HashId(h, id);
    const RoutingTable& rt = n->routing_table();
    for (int r = 0; r < rt.rows(); ++r) {
      for (int c = 0; c < rt.columns(); ++c) {
        if (std::optional<NodeId> entry = rt.Get(r, c)) {
          HashU32(h, static_cast<uint32_t>(r));
          HashU32(h, static_cast<uint32_t>(c));
          HashId(h, *entry);
        }
      }
    }
    HashU32(h, 0xFFFFFFFFu);
    for (size_t i = 0; i < n->neighborhood().size(); ++i) {
      HashId(h, n->neighborhood().member(i));
    }
    HashU32(h, 0xFFFFFFFEu);
    for (const NodeId& m : n->leaf_set().larger()) {
      HashId(h, m);
    }
    HashU32(h, 0xFFFFFFFDu);
    for (const NodeId& m : n->leaf_set().smaller()) {
      HashId(h, m);
    }
    HashU32(h, 0xFFFFFFFCu);
  }
  return DigestToHex(h.Final());
}

TEST(PastryStateDigestTest, BatchedCohortBuild) {
  PastryConfig config;
  PastryNetwork net(config, 2001);
  constexpr size_t kNodes = 2000;
  constexpr size_t kCohort = 256;
  net.BeginJoinBatch();
  for (size_t i = 0; i < kNodes; ++i) {
    net.CreateNode();
    if ((i + 1) % kCohort == 0) {
      net.FlushJoinBatch();
    }
  }
  net.EndJoinBatch();
  ASSERT_EQ(net.live_count(), kNodes);
  EXPECT_EQ(StateDigest(net), "f5c95497a1472a55b956973d03e76f677d91cf3f");
}

// Batched join announcements are observationally identical to the eager
// per-join schedule: an unbatched build bypasses the queueing machinery
// entirely, a flush every 16 joins exercises repeated intra-build flushes,
// and a single flush at the end covers a cohort larger than the build. All
// three must reach the same full Pastry state for every seed.
TEST(PastryStateDigestTest, JoinCohortInvariantAcrossSeeds) {
  constexpr size_t kNodes = 260;
  auto build = [&](uint64_t seed, size_t cohort) {
    PastryNetwork net(PastryConfig{}, seed);
    if (cohort > 1) {
      net.BeginJoinBatch();
    }
    for (size_t i = 0; i < kNodes; ++i) {
      net.CreateNode();
      if (cohort > 1 && (i + 1) % cohort == 0) {
        net.FlushJoinBatch();
      }
    }
    if (cohort > 1) {
      net.EndJoinBatch();
    }
    return StateDigest(net);
  };
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::string eager = build(seed, 1);
    EXPECT_EQ(build(seed, 16), eager) << "seed " << seed;
    EXPECT_EQ(build(seed, 1024), eager) << "seed " << seed;
  }
}

TEST(PastryStateDigestTest, UnbatchedBuildWithFailuresAndRecoveries) {
  PastryConfig config;
  PastryNetwork net(config, 2002);
  net.BuildInitialNetwork(500);
  Rng rng(2003);
  std::vector<NodeId> failed;
  for (int i = 0; i < 40; ++i) {
    std::vector<NodeId> live = net.live_nodes();
    NodeId victim = live[rng.NextBelow(live.size())];
    net.FailNode(victim);
    failed.push_back(victim);
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(net.RecoverNode(failed[static_cast<size_t>(i) * 2]));
  }
  ASSERT_EQ(net.live_count(), 480u);
  // Each RecoverNode routes its join message while the recovering id is
  // still dead, so the stale routing-table entries other nodes hold for it
  // do not steer the route; the digest pins that order.
  EXPECT_EQ(StateDigest(net), "0bf8ac6d599b3a191beca16082d49219c0007e6b");
}

TEST(PastryProximityTest, DistancesMatchRecordedCoordinatesForLiveAndDeadNodes) {
  PastryConfig config;
  PastryNetwork net(config, 2004);
  Rng rng(2005);
  std::unordered_map<NodeId, Coordinate, NodeIdHash> placed;
  auto join = [&](const NodeId& id) {
    Coordinate location{rng.NextDouble(), rng.NextDouble()};
    ASSERT_TRUE(net.Join(id, location));
    placed[id] = location;
  };
  std::vector<NodeId> ids;
  for (int i = 0; i < 300; ++i) {
    ids.emplace_back(rng.NextU64(), rng.NextU64());
    join(ids.back());
  }
  std::vector<NodeId> failed;
  for (int i = 0; i < 30; ++i) {
    std::vector<NodeId> live = net.live_nodes();
    NodeId victim = live[rng.NextBelow(live.size())];
    net.FailNode(victim);
    failed.push_back(victim);
  }
  // Rejoin a third of them somewhere new: the recorded coordinate moves too.
  for (int i = 0; i < 10; ++i) {
    join(failed[static_cast<size_t>(i) * 3]);
  }
  const NodeDirectory* dir = net.directory();
  ASSERT_NE(dir->distance, nullptr);
  auto same_bits = [](double want, double got) {
    return std::memcmp(&want, &got, sizeof(double)) == 0;
  };
  const double fallback = -1.0;
  size_t dead_pairs = 0;
  for (int i = 0; i < 5000; ++i) {
    auto a = static_cast<PastryNetwork::NodeIndex>(rng.NextBelow(net.node_count()));
    auto b = static_cast<PastryNetwork::NodeIndex>(rng.NextBelow(net.node_count()));
    const NodeId& ida = dir->resolve(dir->ctx, a);
    const NodeId& idb = dir->resolve(dir->ctx, b);
    const bool live = net.alive_at(a) && net.alive_at(b);
    const double torus = TorusDistance(placed.at(ida), placed.at(idb));
    const double by_index = dir->distance(dir->ctx, a, b);
    const double by_id = net.DistanceOr(ida, idb, fallback);
    EXPECT_TRUE(same_bits(live ? torus : 1e9, by_index))
        << "pair " << a << "," << b << ": " << by_index;
    EXPECT_TRUE(same_bits(live ? torus : fallback, by_id))
        << "pair " << a << "," << b << ": " << by_id;
    if (!live) {
      ++dead_pairs;
    }
  }
  // Both kinds of pair were sampled: 20 of 300 ids stay dead.
  EXPECT_GT(dead_pairs, 0u);
  EXPECT_LT(dead_pairs, 5000u);

  // An id never interned takes the fallback against any endpoint.
  const NodeId stranger(rng.NextU64(), rng.NextU64());
  ASSERT_EQ(net.IndexOf(stranger), PastryNetwork::kInvalidIndex);
  const NodeId live_id = net.live_nodes().front();
  EXPECT_TRUE(same_bits(fallback, net.DistanceOr(stranger, live_id, fallback)));
  EXPECT_TRUE(same_bits(fallback, net.DistanceOr(live_id, stranger, fallback)));
  EXPECT_TRUE(same_bits(fallback, net.DistanceOr(stranger, stranger, fallback)));
  EXPECT_EQ(net.IndexOf(stranger), PastryNetwork::kInvalidIndex);
}

}  // namespace
}  // namespace past
