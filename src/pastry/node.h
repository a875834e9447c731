// A single Pastry node: nodeId plus the three pieces of routing state
// (routing table, leaf set, neighborhood set) and the per-hop forwarding
// decision (paper section 2.1).
//
// Nodes are plain fixed-size values designed to live in an Arena: routing
// state stores interned u32 directory indices, aliveness and proximity come
// from the shared NodeDirectory (no per-node closures), and the only heap
// the node owns is the lazily-allocated routing rows (arena-backed when the
// owning network provides one).
#ifndef SRC_PASTRY_NODE_H_
#define SRC_PASTRY_NODE_H_

#include <optional>
#include <vector>

#include "src/common/arena.h"
#include "src/common/node_id.h"
#include "src/common/rng.h"
#include "src/pastry/config.h"
#include "src/pastry/directory.h"
#include "src/pastry/leaf_set.h"
#include "src/pastry/neighborhood_set.h"
#include "src/pastry/routing_table.h"

namespace past {

class PastryNode {
 public:
  // `dir` must be non-null and outlive the node; it supplies interning,
  // liveness, and the proximity metric for all three state components.
  PastryNode(const NodeId& id, const PastryConfig& config, const NodeDirectory* dir,
             Arena* arena = nullptr);

  const NodeId& id() const { return id_; }
  const PastryConfig& config() const { return config_; }

  RoutingTable& routing_table() { return routing_table_; }
  const RoutingTable& routing_table() const { return routing_table_; }
  LeafSet& leaf_set() { return leaf_set_; }
  const LeafSet& leaf_set() const { return leaf_set_; }
  NeighborhoodSet& neighborhood() { return neighborhood_; }
  const NeighborhoodSet& neighborhood() const { return neighborhood_; }

  // Considers `other` for all three state components.
  void Learn(const NodeId& other) { LearnIndex(dir_->intern(dir_->ctx, other)); }
  // Same for the node interned at `index`.
  void LearnIndex(uint32_t index);

  // Drops `other` from all state (failed node).
  void Forget(const NodeId& other);

  // Computes the next hop toward `key`. Returns nullopt when this node is the
  // destination (numerically closest live node it knows of). Liveness comes
  // from the directory; dead references discovered en route are forgotten on
  // the spot, emulating the timeout + lazy repair of the real protocol. When
  // `rng` is non-null and the config enables route randomization, a random
  // valid next hop (sharing at least as long a prefix and numerically
  // strictly closer to `key`) may be chosen instead of the best one.
  //
  // When `deferred_dead` is non-null the call is read-only: dead references
  // are appended there instead of being forgotten, and the caller applies
  // Forget later. The sharded scale engine routes in parallel with this form
  // (Phase A must not mutate node state) and replays the forgets in canonical
  // order at the barrier.
  std::optional<NodeId> NextHop(const NodeId& key, Rng* rng = nullptr,
                                std::vector<NodeId>* deferred_dead = nullptr);

 private:
  bool AliveAt(uint32_t index) const { return dir_->alive(dir_->ctx, index); }

  // Best alive member of {self} ∪ leaf set by ring distance to key.
  NodeId ClosestAliveLeaf(const NodeId& key, std::vector<NodeId>* deferred_dead);

  // All alive known nodes that are valid Pastry forwarding choices for `key`:
  // shared prefix >= ours and strictly numerically closer.
  std::vector<NodeId> ValidCandidates(const NodeId& key);

  NodeId id_;
  const NodeDirectory* dir_;
  PastryConfig config_;
  RoutingTable routing_table_;
  LeafSet leaf_set_;
  NeighborhoodSet neighborhood_;
};

}  // namespace past

#endif  // SRC_PASTRY_NODE_H_
