// Pins every live node's full Pastry state — routing table (row, column,
// id), neighborhood members in order, and leaf set — after a batched cohort
// build and after an unbatched build followed by failures and recoveries.
// The scale engine's StateFingerprint hashes leaf sets only, so a change to
// the locality heuristic's proximity reads (which slot keeps which
// candidate, which neighbors a node keeps) would slip past it; these
// digests catch it.
//
// Also checks the directory's index-keyed proximity metric against the
// topology's id-keyed one, bit for bit, for live and failed endpoints.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
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
  EXPECT_EQ(StateDigest(net), "3610725b594793a595388e4958473b0efdd43e77");
}

TEST(PastryProximityTest, IndexDistanceMatchesTopologyForLiveAndDeadNodes) {
  PastryConfig config;
  PastryNetwork net(config, 2004);
  net.BuildInitialNetwork(300);
  Rng rng(2005);
  std::vector<NodeId> failed;
  for (int i = 0; i < 30; ++i) {
    std::vector<NodeId> live = net.live_nodes();
    NodeId victim = live[rng.NextBelow(live.size())];
    net.FailNode(victim);
    failed.push_back(victim);
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(net.RecoverNode(failed[static_cast<size_t>(i) * 3]));
  }
  const NodeDirectory* dir = net.directory();
  ASSERT_NE(dir->distance, nullptr);
  size_t dead_pairs = 0;
  for (int i = 0; i < 5000; ++i) {
    auto a = static_cast<PastryNetwork::NodeIndex>(rng.NextBelow(net.node_count()));
    auto b = static_cast<PastryNetwork::NodeIndex>(rng.NextBelow(net.node_count()));
    const NodeId& ida = dir->resolve(dir->ctx, a);
    const NodeId& idb = dir->resolve(dir->ctx, b);
    double want = net.topology().DistanceOr(ida, idb, 1e9);
    double got = dir->distance(dir->ctx, a, b);
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
        << "pair " << a << "," << b << ": " << got << " != " << want;
    if (!net.alive_at(a) || !net.alive_at(b)) {
      ++dead_pairs;
    }
  }
  // Both kinds of pair were sampled: 20 of 300 ids stay dead.
  EXPECT_GT(dead_pairs, 0u);
  EXPECT_LT(dead_pairs, 5000u);
}

}  // namespace
}  // namespace past
