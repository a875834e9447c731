// The Chord overlay network: node registry, join, stabilization, and
// iterative find-successor routing with hop/distance accounting, mirroring
// the PastryNetwork interface closely enough for side-by-side benches.
//
// In Chord a key is owned by its *successor* (the first node clockwise from
// the key), not the numerically closest node; fingers halve the remaining
// clockwise distance each hop, giving O(log N) lookups. Crucially for the
// PAST comparison, finger selection is fully determined by the id space —
// there is no proximity-aware choice — so each hop travels an average
// network distance regardless of how close the destination already is.
#ifndef SRC_CHORD_CHORD_NETWORK_H_
#define SRC_CHORD_CHORD_NETWORK_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/chord/chord_node.h"
#include "src/common/rng.h"
#include "src/net/transport_stats.h"

namespace past {

struct ChordRouteResult {
  std::vector<NodeId> path;  // visited nodes, origin first, owner last
  double distance = 0.0;     // proximity distance traversed
  bool succeeded = false;

  int hops() const { return path.empty() ? 0 : static_cast<int>(path.size()) - 1; }
  NodeId owner() const { return path.empty() ? NodeId() : path.back(); }
};

class ChordNetwork {
 public:
  ChordNetwork(int successor_list_length, uint64_t seed);

  TransportStats& stats() { return stats_; }

  // --- membership ---

  NodeId CreateNode();
  bool Join(const NodeId& id, const Coordinate& location);
  void BuildInitialNetwork(size_t n);

  // Rebuilds every node's finger table by routing (the amortized effect of
  // Chord's fix_fingers maintenance).
  void FixAllFingers();

  // Runs `rounds` of Chord's periodic stabilization: each node asks its
  // successor for the successor's predecessor (adopting it if it lies in
  // between), notifies the successor, and refreshes its successor list.
  // Chord's ring is only *eventually* consistent — joins rely on
  // stabilization to propagate, unlike Pastry's eager announcements.
  void Stabilize(int rounds = 2);

  // --- routing ---

  // Iterative find-successor: returns the owner of `key` (the first node
  // clockwise from it) with the path taken.
  ChordRouteResult FindSuccessor(const NodeId& from, const NodeId& key);

  // --- queries / oracles ---

  // Proximity distance between two joined nodes.
  double Distance(const NodeId& a, const NodeId& b) const;

  ChordNode* node(const NodeId& id);
  const ChordNode* node(const NodeId& id) const;
  size_t live_count() const { return ring_.size(); }
  std::vector<NodeId> live_nodes() const;

  // Ground truth: the ring successor of `key` among the nodes.
  NodeId OwnerOf(const NodeId& key) const;

  // Number of nodes whose immediate successor disagrees with the ground
  // truth ring (0 = invariant holds).
  size_t CountSuccessorViolations() const;

 private:
  void BuildFingers(ChordNode& node);

  int successor_list_length_;
  Rng rng_;
  TransportStats stats_;
  std::unordered_map<NodeId, std::unique_ptr<ChordNode>, NodeIdHash> nodes_;
  std::map<uint128, NodeId> ring_;
};

}  // namespace past

#endif  // SRC_CHORD_CHORD_NETWORK_H_
