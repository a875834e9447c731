// The Pastry overlay network: node registry, the join / failure / recovery
// protocols, and message routing with hop accounting.
//
// Mirrors the paper's evaluation methodology: all nodes live in one process
// and communicate by direct invocation, while proximity comes from the
// emulated topology. Ground-truth oracles (the sorted ring of live ids) are
// exposed for invariant checking in tests, never used on routing paths.
//
// Node state is flat: every id ever joined is interned to a dense NodeIndex
// into parallel arrays (node slot, alive bit, id), membership checks are
// open-addressing probes over contiguous memory, and the live ring is a
// sorted array (SortedRing) instead of a std::map. Indices are stable for
// the lifetime of the network — failure and recovery flip the alive bit but
// never reassign the index — which is what lets the sharded scale engine
// partition nodes by index range.
//
// The network is also the NodeDirectory for all of its nodes: interning,
// liveness, and proximity are C function pointers over the flat arrays, so a
// PastryNode carries no per-node std::function closures. Each node's
// coordinate lives once, in a dense per-index array beside the alive bits:
// the locality heuristic's millions of owner/candidate comparisons per
// overlay build, routing's per-hop distance and the id-keyed DistanceOr all
// read it there. A 64x64 seed grid over the torus holds each live node's
// index in its coordinate's cell, so Join's nearest-seed search is an
// expanding-ring scan that reads coordinates back from that array. Nodes
// themselves are carved from a network-owned Arena, and so are their
// routing rows and the FlatTable backing stores — at a million nodes this
// keeps allocator metadata and per-allocation padding from dominating RSS.
#ifndef SRC_PASTRY_NETWORK_H_
#define SRC_PASTRY_NETWORK_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/common/arena.h"
#include "src/common/flat_table.h"
#include "src/common/node_id.h"
#include "src/common/rng.h"
#include "src/net/coordinate.h"
#include "src/net/transport_stats.h"
#include "src/pastry/config.h"
#include "src/pastry/directory.h"
#include "src/pastry/node.h"
#include "src/pastry/ring.h"

namespace past {

// Notifications about overlay membership changes; PAST subscribes to drive
// replica maintenance (paper section 3.5).
class MembershipObserver {
 public:
  virtual ~MembershipObserver() = default;
  virtual void OnNodeJoined(const NodeId& id) = 0;
  virtual void OnNodeFailed(const NodeId& id) = 0;
};

struct RouteResult {
  // Visited nodes, origin first. Empty only if the origin is unknown/dead.
  std::vector<NodeId> path;
  // True if the stop predicate fired before reaching the numerically
  // closest node (e.g. a cached copy satisfied a lookup en route).
  bool stopped_early = false;
  // False if a malicious node on the path accepted the message but silently
  // dropped it (paper section 2.3). The client must retry; randomized
  // routing makes the retry likely to avoid the bad node.
  bool delivered = true;
  // Sum of proximity distances over all hops taken.
  double distance = 0.0;

  int hops() const { return path.empty() ? 0 : static_cast<int>(path.size()) - 1; }
  NodeId destination() const { return path.empty() ? NodeId() : path.back(); }
};

// A dead reference observed during routing with Forget deferred: `observer`
// saw `dead` in its leaf set or routing table while forwarding. The scale
// engine applies the corresponding Forget calls at its epoch barrier, in a
// canonical order, so parallel route phases stay read-only.
struct DeferredForget {
  NodeId observer;
  NodeId dead;
};

// Redirections for a single Route call; all fields default to the network's
// own state. The sharded scale engine points them at per-shard collectors so
// parallel routing touches no shared mutable state.
struct RouteOptions {
  TransportStats* stats = nullptr;  // hop/message accounting sink
  Rng* rng = nullptr;               // randomized-routing source
  // Collect (observer, dead) pairs instead of calling Forget inline.
  std::vector<DeferredForget>* deferred_forgets = nullptr;
};

class PastryNetwork {
 public:
  // Stop predicate evaluated at every node a message visits (including the
  // origin); returning true terminates routing at that node.
  using StopFn = std::function<bool(const NodeId&)>;

  // Dense per-node index; stable from first join for the network's lifetime.
  using NodeIndex = uint32_t;
  static constexpr NodeIndex kInvalidIndex = static_cast<NodeIndex>(-1);

  PastryNetwork(const PastryConfig& config, uint64_t seed);
  ~PastryNetwork();

  // The directory trampolines carry `this`; the network must stay put.
  PastryNetwork(const PastryNetwork&) = delete;
  PastryNetwork& operator=(const PastryNetwork&) = delete;

  const PastryConfig& config() const { return config_; }
  TransportStats& stats() { return stats_; }
  const TransportStats& stats() const { return stats_; }
  Rng& rng() { return rng_; }
  // The shared directory backing every node's routing state.
  const NodeDirectory* directory() const { return &dir_; }

  // --- membership ---

  // Creates a node with a fresh quasi-random nodeId at a uniform location and
  // joins it through the proximally nearest existing node. Returns its id.
  NodeId CreateNode();

  // Joins a node with a caller-chosen id at `location`, wrapped onto the
  // unit torus. Returns false if the id is already live.
  bool Join(const NodeId& id, const Coordinate& location);

  // Builds an initial network of `n` uniformly placed nodes.
  void BuildInitialNetwork(size_t n);

  // --- batched joins (bulk network construction) ---
  //
  // Between BeginJoinBatch() and EndJoinBatch(), the "newcomer announces
  // itself to every node it references" step of Join is deferred: each
  // announcement is queued per target and applied (in announcement order)
  // the first time that target's state is next read. Every observable read
  // goes through node()/node_at(), which flush first, so the state any
  // consumer — including the joins that follow in the same batch — ever
  // sees is bit-identical to the eager schedule. What changes is locality:
  // a target touched by many joins applies its Learns in one pass over hot
  // state instead of being dragged into cache once per join. FlushJoinBatch
  // drains everything pending (index order) without leaving batch mode;
  // EndJoinBatch drains and deactivates. Nesting is not supported.
  void BeginJoinBatch();
  void FlushJoinBatch();
  void EndJoinBatch();
  // While true, const reads of node state may apply queued announcements,
  // so they are not safe to run concurrently.
  bool join_batch_active() const { return join_batch_active_; }

  // Fails a node and immediately runs failure detection and leaf-set repair
  // on the affected nodes (the common case in tests and experiments).
  void FailNode(const NodeId& id);

  // Marks a node dead without telling anyone. Failure is discovered lazily
  // during routing or by the next DetectAndRepair() keep-alive round.
  void FailNodeSilently(const NodeId& id);

  // One keep-alive round: every live node checks its leaf set for dead
  // members and repairs (paper: neighbors exchange keep-alives; after period
  // T a silent node is presumed failed). Returns number of failures detected.
  size_t DetectAndRepair();

  // A previously failed node recovers and rejoins with the same id.
  bool RecoverNode(const NodeId& id);

  // One round of lazy routing-table repair (paper section 2.1: a failed
  // entry at row r is replaced by asking other nodes from row r for a node
  // with the required prefix). Each live node offers its row-mates' entries
  // and its leaf set to every node it references. Returns the number of
  // routing-table slots that were newly filled.
  size_t RepairRoutingTables();

  // --- routing ---

  // Routes a message from `from` toward `key`, stopping early where `stop`
  // fires. Accounts hops and proximity distance in stats().
  RouteResult Route(const NodeId& from, const NodeId& key, const StopFn& stop = nullptr);

  // Same, with per-call redirection of stats/rng/forget handling (see
  // RouteOptions). With `deferred_forgets` set the call leaves all node
  // state untouched.
  RouteResult Route(const NodeId& from, const NodeId& key, const StopFn& stop,
                    const RouteOptions& options);

  // --- adversarial model (paper section 2.3) ---

  // Marks a node as malicious: it accepts messages routed to it but does not
  // forward them. Routing state still lists it (it responds to probes), so
  // deterministic routes through it fail repeatedly; randomized routing
  // (PastryConfig::route_randomization) lets retries evade it.
  void SetMalicious(const NodeId& id, bool malicious);
  bool IsMalicious(const NodeId& id) const;

  // --- queries ---

  // Proximity distance between two live nodes; `fallback` when either is
  // dead or was never interned. The directory's index-keyed metric is the
  // same kernel with fallback 1e9.
  double DistanceOr(const NodeId& a, const NodeId& b, double fallback) const;

  bool IsAlive(const NodeId& id) const {
    const NodeIndex* idx = index_.Find(id);
    return idx != nullptr && alive_bits_[*idx] != 0;
  }
  PastryNode* node(const NodeId& id) {
    const NodeIndex* found = index_.Find(id);
    if (found == nullptr) {
      return nullptr;
    }
    // Copy before flushing: an intern during the flush may rehash index_,
    // invalidating `found`.
    NodeIndex idx = *found;
    if (join_batch_active_) {
      FlushPending(idx);
    }
    return slots_[idx];
  }
  const PastryNode* node(const NodeId& id) const {
    // Lazily applying queued announcements is logically const: the flushed
    // state is exactly what the eager schedule would already contain.
    return const_cast<PastryNetwork*>(this)->node(id);
  }
  size_t live_count() const { return ring_.size(); }
  std::vector<NodeId> live_nodes() const { return ring_.ids(); }

  // --- dense-index access (scale engine, invariant sweeps) ---

  // Total interned ids (live + dead); indices are [0, node_count()).
  size_t node_count() const { return slots_.size(); }
  NodeIndex IndexOf(const NodeId& id) const {
    const NodeIndex* idx = index_.Find(id);
    return idx == nullptr ? kInvalidIndex : *idx;
  }
  PastryNode* node_at(NodeIndex index) {
    if (join_batch_active_) {
      FlushPending(index);
    }
    return slots_[index];
  }
  const PastryNode* node_at(NodeIndex index) const {
    return const_cast<PastryNetwork*>(this)->node_at(index);
  }
  bool alive_at(NodeIndex index) const { return alive_bits_[index] != 0; }
  const SortedRing& ring() const { return ring_; }
  // Arena stats for memory accounting (scale dumps).
  const Arena& arena() const { return arena_; }

  // Ground-truth oracle: the k live nodes numerically closest to `key`.
  std::vector<NodeId> KClosestLive(const NodeId& key, size_t k) const {
    return ring_.KClosest(key, k);
  }

  // Ground-truth oracle: the live node numerically closest to `key`.
  NodeId ClosestLive(const NodeId& key) const;

  // The live node proximally closest to `point` (a coordinate in [0, 1)^2),
  // ties toward the smaller id; Join's bootstrap seed. Default NodeId when no
  // node is live.
  NodeId NearestLiveTo(const Coordinate& point) const;

  // --- observers / invariants ---

  void AddObserver(MembershipObserver* observer) { observers_.push_back(observer); }
  void RemoveObserver(MembershipObserver* observer);

  // Verifies every live node's leaf set against the ground-truth ring.
  // Returns the number of discrepancies (0 means the invariant holds).
  size_t CountLeafSetViolations() const;

 private:
  NodeId RandomNodeId();
  void AnnounceNewNode(NodeIndex newcomer);
  void RepairAfterFailure(const NodeId& failed);
  void NotifyJoined(const NodeId& id);
  void NotifyFailed(const NodeId& id);

  // Interns `id`: returns its stable dense index, appending an empty slot
  // (no node, dead) on first sight.
  NodeIndex Intern(const NodeId& id);
  // Interns `id` and constructs a live arena-backed node in its slot at
  // `location`, destroying any stale previous incarnation. Returns its index.
  NodeIndex InstallNode(const NodeId& id, const Coordinate& location);

  // Applies (and clears) the queued join announcements for one node.
  void FlushPending(NodeIndex index);

  // NodeDirectory trampolines; ctx is the PastryNetwork.
  static uint32_t DirIntern(void* ctx, const NodeId& id);
  static uint32_t DirFind(void* ctx, const NodeId& id);
  static const NodeId& DirResolve(void* ctx, uint32_t index);
  static bool DirAlive(void* ctx, uint32_t index);
  static double DirDistance(void* ctx, uint32_t a, uint32_t b);
  double DistanceAt(NodeIndex a, NodeIndex b, double fallback) const;

  PastryConfig config_;
  Rng rng_;
  // Live nodes' indices by the cell of their coordinate, row-major: exactly
  // the members of ring_. Join pushes a node into its cell, FailNodeSilently
  // takes it out.
  std::vector<std::vector<NodeIndex>> seed_grid_;
  TransportStats stats_;
  // Backing store for nodes, routing rows, and (via set_arena) FlatTables.
  // Declared before the slot array so it outlives nothing that references
  // it; actual node destruction happens explicitly in ~PastryNetwork.
  Arena arena_;
  // Interned node table: id -> dense index into the parallel arrays below.
  FlatTable<NodeId, NodeIndex, NodeIdHash> index_;
  std::vector<PastryNode*> slots_;     // by NodeIndex; arena-owned
  std::vector<uint8_t> alive_bits_;    // by NodeIndex
  // By NodeIndex: where Join last placed the node, the only copy of each
  // node's coordinate. A dead node's entry is stale; readers check its
  // alive bit first.
  std::vector<Coordinate> locations_;
  std::vector<NodeId> ids_by_index_;   // by NodeIndex; resolve() storage
  NodeDirectory dir_;
  // Sparse: most networks have no malicious nodes; the hot path only checks
  // per hop once any id has ever been marked (mirrors the old map's
  // emptiness hoist).
  FlatTable<NodeId, uint8_t, NodeIdHash> malicious_;
  SortedRing ring_;  // live nodes ordered by id (oracle + seeds)
  std::vector<MembershipObserver*> observers_;

  // Deferred join announcements: a per-node FIFO chain threaded through one
  // flat pool (head/tail per NodeIndex, kInvalidIndex when empty). Only
  // populated while a join batch is active.
  struct PendingLearn {
    uint32_t next;
    NodeIndex newcomer;
  };
  bool join_batch_active_ = false;
  std::vector<PendingLearn> pending_pool_;
  std::vector<uint32_t> pending_head_;
  std::vector<uint32_t> pending_tail_;
};

}  // namespace past

#endif  // SRC_PASTRY_NETWORK_H_
