// PastNetwork: the PAST storage utility as a whole — every storage node, the
// Pastry overlay beneath them, and the distributed insert / lookup / reclaim
// protocols with replica diversion, file diversion support, caching, and
// replica maintenance under churn.
#ifndef SRC_PAST_PAST_NETWORK_H_
#define SRC_PAST_PAST_NETWORK_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/common/file_id.h"
#include "src/common/flat_table.h"
#include "src/common/node_id.h"
#include "src/net/sim_transport.h"
#include "src/net/transport.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/past/config.h"
#include "src/past/past_node.h"
#include "src/past/results.h"
#include "src/pastry/network.h"
#include "src/storage/admission.h"
#include "src/storage/wal.h"

namespace past {

class AsyncOp;
class InsertOp;
class LookupOp;
class OpCore;
class OpEngine;
class ReclaimOp;
class RepairOp;
class ScaleEngine;
class StoreChain;
class ThreadPool;

class PastNetwork : public MembershipObserver {
 public:
  PastNetwork(const PastConfig& config, const PastryConfig& pastry_config, uint64_t seed);
  ~PastNetwork() override;

  PastNetwork(const PastNetwork&) = delete;
  PastNetwork& operator=(const PastNetwork&) = delete;

  const PastConfig& config() const { return config_; }
  PastryNetwork& overlay() { return pastry_; }
  const PastryNetwork& overlay() const { return pastry_; }

  // --- message fabric ---

  // The transport every node-to-node protocol message travels through. The
  // default is an InlineTransport (zero-latency, fault-free SimTransport
  // over a queue of its own) sharing the overlay's stats ledger.
  Transport& transport() { return *transport_; }

  // Replaces the transport; passing nullptr restores the default.
  void set_transport(std::unique_ptr<Transport> transport);

  // Convenience: installs a SimTransport driven by `queue` (latency-scheduled
  // delivery + fault injection) and returns it for fault control. The queue
  // must outlive this network.
  SimTransport& UseSimTransport(EventQueue& queue, const SimTransport::Options& options);

  // --- observability ---

  // The network-scoped metrics registry. Clients and the harness register
  // their own tallies here; all internal increments go through it too.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  // Network-wide aggregate: the network registry merged with every live
  // node's per-node registry (store/cache tallies) and the transport stats.
  obs::MetricsSnapshot SnapshotMetrics() const;

  // Per-node scope, refreshed before return; nullptr for unknown nodes.
  obs::MetricsSnapshot NodeMetrics(const NodeId& id) const;

  // Structured op tracing. The sink receives one record per completed
  // insert / lookup / reclaim / file-repair; null disables tracing.
  void set_trace_sink(std::shared_ptr<obs::TraceSink> sink) { trace_sink_ = std::move(sink); }
  obs::TraceSink* trace_sink() const { return trace_sink_.get(); }

  // --- membership ---

  // Adds a storage node with the given advertised capacity at a uniformly
  // random location. Returns its nodeId.
  NodeId AddStorageNode(uint64_t capacity_bytes);

  // Adds a storage node clustered around `center` (client locality model).
  NodeId AddStorageNodeNear(uint64_t capacity_bytes, const Coordinate& center, double spread);

  // Admission-controlled join (paper section 3.2): the advertised capacity
  // is compared against the average capacity in the joining node's
  // prospective leaf set. Oversized nodes are split into several logical
  // nodes with separate nodeIds; undersized nodes are rejected.
  struct AdmissionOutcome {
    AdmissionDecision decision = AdmissionDecision::kAccept;
    std::vector<NodeId> nodes;  // logical nodes created (empty on reject)
  };
  AdmissionOutcome AddStorageNodeWithAdmission(uint64_t advertised_capacity);

  // Fails a storage node (its disk contents are lost); Pastry repairs its
  // leaf sets and, if maintenance is enabled, replicas are re-created.
  void FailStorageNode(const NodeId& id);

  // --- durable stores ---

  // Attaches a write-ahead journal (src/storage/wal.h) to every node added
  // from now on: each node logs into `env` directory <nodeId hex>, and the
  // ops layer commits before acks/receipts leave a node. Call before adding
  // nodes; `env` must outlive this network.
  void UseDurableStore(StorageEnv& env, const DurableOptions& opts);

  // Brings a previously failed node back with whatever its directory holds
  // (possibly a torn tail): replays the log, then audits the recovered state
  // against the current overlay — a recovered replica or pointer survives
  // only if the file's current k-closest neighborhood still references it
  // (otherwise it would be double-counted or resurrect reclaimed data), and
  // the following MaintenanceSweep re-advertises or reclaims the rest.
  // Without a durable env this is a rejoin with an empty store. The id must
  // belong to a currently-dead node.
  struct RejoinOutcome {
    bool ok = false;
    uint64_t replicas_recovered = 0;  // survived the audit
    uint64_t replicas_dropped = 0;    // replayed but no longer referenced
    uint64_t pointers_dropped = 0;    // replayed but holder/replica gone
  };
  RejoinOutcome RejoinStorageNode(const NodeId& id, uint64_t capacity_bytes);

  PastNode* storage_node(const NodeId& id);
  const PastNode* storage_node(const NodeId& id) const;
  size_t node_count() const { return nodes_.size(); }

  // --- operation engine ---

  // Runs the insert / lookup / reclaim state machines: starts ops, tracks
  // in-flight counts, drains the transport. Clients submit through a
  // PastClient (src/past/client.h), which adds re-salting and quota
  // bookkeeping; harnesses Poll()/WaitAll() here and read the gauges.
  OpEngine& engine() { return *engine_; }

  // --- global metrics ---

  // Total advertised capacity over live storage nodes.
  uint64_t total_capacity() const { return total_capacity_; }
  // Bytes held in primary + diverted replicas over live nodes.
  uint64_t total_stored() const { return total_stored_; }
  // Global storage utilization in [0, 1].
  double utilization() const;

  // Live replica / diverted-replica counts (scans all nodes; for sampling).
  struct ReplicaCensus {
    uint64_t replicas = 0;
    uint64_t diverted = 0;
  };
  ReplicaCensus CountReplicas() const;

  // --- invariant checking / simulation hooks ---

  // For every file in `files`, verifies that each of the k live nodes
  // closest to its fileId holds either a replica or a diversion pointer to a
  // live replica holder. Returns the number of violations.
  size_t CountStorageInvariantViolations(const std::vector<FileId>& files) const;

  // Ids of every storage node this network still tracks. A silently crashed
  // node stays listed (with `overlay().IsAlive()` false) until failure
  // detection runs and OnNodeFailed reaps it. Sorted by nodeId so invariant
  // scans are deterministic.
  std::vector<NodeId> StorageNodeIds() const;

  // Full replica-maintenance sweep at a quiescent point: RestoreInvariants
  // over every live node's file table (closing holes that message loss
  // punched into earlier repair rounds), then reconciliation of diverted
  // replicas against the current k-closest sets — a diverted replica whose
  // holder has become one of the k closest is promoted to a primary, and one
  // that no k-closest node references any more (its diverter died and repair
  // re-replicated around it) is garbage-collected so the bytes are not
  // leaked forever. The simulation soak harness runs this at every
  // checkpoint; it is also safe to call from experiments after churn.
  //
  // With `pool`, the sweep's two read-only scans run in parallel chunks on
  // it: the per-file diagnosis (RepairOp::NeedsRepair) and the reconcile
  // pass's decision collection. Repairs and reconcile actions still apply
  // serially in the serial sweep's order, so the result is identical. That
  // equivalence needs a quiescent network, which the pool path checks: it
  // throws std::logic_error, before changing anything, if the transport
  // has a delivery in flight or any other event pending, or a join batch
  // is open.
  void MaintenanceSweep(ThreadPool* pool = nullptr);

  // Count of live replicas of one file across all nodes.
  uint32_t CountLiveReplicas(const FileId& file_id) const;

  // MembershipObserver:
  void OnNodeJoined(const NodeId& id) override;
  void OnNodeFailed(const NodeId& id) override;

 private:
  // The per-operation coordinators (src/past/ops/) implement the insert /
  // lookup / reclaim / maintenance protocols over the transport; they are
  // the only code with access to the network's internals.
  friend class AsyncOp;
  friend class InsertOp;
  friend class LookupOp;
  friend class OpCore;
  friend class OpEngine;
  friend class ReclaimOp;
  friend class RepairOp;
  // The section 3.3 store exchange both insert drivers run (store_chain.h).
  friend class StoreChain;
  // The epoch-sharded extreme-scale driver (src/sim/scale_engine.h): plans
  // routes in parallel against frozen membership, then commits storage
  // decisions serially through the same private helpers the ops use.
  friend class ScaleEngine;

  // The k live nodes numerically closest to `key`, computed from the root
  // node's leaf set (valid because k <= l/2 + 1).
  std::vector<NodeId> KClosestFromLeafSet(const NodeId& root, const NodeId& key,
                                          size_t k) const;

  // Placement verdict for storing a primary replica of `size` bytes at
  // `node` (one of the k closest). Wraps the node's threshold test with the
  // configured PlacementPolicy; under every kind but the residual one the
  // answer is exactly WouldAcceptPrimary.
  bool ShouldStorePrimary(const PastNode& node, uint64_t size) const;

  // Snapshot of one node's placement-relevant state.
  PlacementCandidate MakePlacementCandidate(const PastNode& node, uint64_t size) const;

  // True if `node` is one of the k closest to `key` according to its own
  // leaf set — the insert/reclaim routing stop predicate.
  bool IsAmongKClosest(const NodeId& node, const NodeId& key, size_t k) const;

  // Chooses a diversion target for node `primary` per the configured policy:
  // a leaf-set member that is not among the k closest and does not already
  // hold a replica of the file. Returns nullopt if none eligible.
  std::optional<NodeId> ChooseDiversionTarget(const NodeId& primary,
                                              const std::vector<NodeId>& k_closest,
                                              const FileId& file_id, uint64_t size);

  // --- placement steps (paper section 3.3) ---
  //
  // The one home of the store / divert / pointer commit and its byte and
  // replica accounting. StoreChain (store_chain.h) sequences them into the
  // insert exchange that InsertOp and ScaleEngine both run; RepairOp,
  // ReclaimOp and MaintenanceSweep call them with their own checks.

  // The k closest live nodes to `key` per `root`'s leaf set, closest first,
  // plus the witness C: the (k+1)-th closest, when the leaf set knows one.
  struct InsertPlan {
    std::vector<NodeId> targets;
    std::optional<NodeId> witness;
  };
  InsertPlan PlanInsertTargets(const NodeId& root, const NodeId& key) const;

  // fileId collision check: some target already holds a replica of `file`
  // or a pointer for it.
  bool AnyHolds(const std::vector<NodeId>& targets, const FileId& file) const;

  // Stores and commits a replica at `node`. Write-ahead contract: the
  // record is durable before any ack or receipt leaves the node, so a
  // replica whose commit fails is removed again (kNotDurable). kNoRoom: the
  // store could not physically fit it. Only kStored changes total_stored_
  // and the replica gauges.
  enum class PlaceOutcome { kStored, kNoRoom, kNotDurable };
  PlaceOutcome PlaceReplica(PastNode& node, const FileId& file, ReplicaKind kind, uint64_t size,
                            FileCertificateRef certificate, FileContentRef content);

  // Installs and commits a diverter or witness pointer at `node`; a pointer
  // whose commit fails is removed again and false returned.
  bool PlacePointer(PastNode& node, const FileId& file, const NodeId& holder, PointerRole role,
                    uint64_t size);

  // Removes `node`'s replica of `file` with its accounting; returns the
  // freed size, or nullopt if it held none.
  std::optional<uint64_t> DropReplica(PastNode& node, const FileId& file);

  // True if `ptr` is non-null and names a live node still holding `file`.
  bool PointerResolves(const DiversionPointer* ptr, const FileId& file) const;

  // A lookup whose route ended at `dest` without meeting a replica: the
  // holder one extra hop away, via dest's diversion pointer, else the first
  // of the k closest to `key` that holds one (stale leaf sets right after
  // churn). Read-only, so planners may call it in parallel.
  struct NearRootServe {
    NodeId holder;
    bool via_pointer = false;
    double distance = 0.0;  // proximity distance of the extra hop
  };
  std::optional<NearRootServe> ServeNearRoot(const NodeId& dest, const NodeId& key,
                                             const FileId& file) const;

  // --- op outcome records ---
  //
  // The only writers of the insert and lookup instruments that InsertOp,
  // LookupOp and ScaleEngine share, so both engines count the same things.
  // An op records once, when it finishes; a cancelled op records nothing.

  // One insert attempt (each re-salt is one): attempts, file size and route
  // hops always; a failure unless it stored.
  void RecordInsert(uint64_t size, int hops, bool stored);

  // One lookup: always a request (and a pointer hop when a diversion
  // pointer led to the replica); hops, distance and the cache tier that
  // served it for found lookups only; a tier miss for every lookup that
  // did not time out and that no cache served.
  void RecordLookup(const LookupResult& result);

  // Caches the file along a route (section 4).
  void CacheAlongPath(const std::vector<NodeId>& path, const FileId& file_id, uint64_t size,
                      const FileContentRef& content);

  // Replica maintenance (section 3.5) over a set of nodes' file tables
  // (see RepairOp::RestoreInvariants for what `pool` changes).
  void RestoreInvariants(const std::vector<NodeId>& region, ThreadPool* pool = nullptr);

  // Emits `event` into the trace sink, stamping the sequence number.
  void EmitTrace(obs::OpTrace event);

  PastConfig config_;
  PastryConfig pastry_config_;
  PastryNetwork pastry_;
  Rng rng_;
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<OpEngine> engine_;
  // Flat open-addressing table (no per-entry heap nodes); iteration is slot
  // order, deterministic for a given operation sequence. Order-sensitive
  // consumers (StorageNodeIds) sort.
  FlatTable<NodeId, std::unique_ptr<PastNode>, NodeIdHash> nodes_;

  obs::MetricsRegistry metrics_;
  std::shared_ptr<obs::TraceSink> trace_sink_;
  uint64_t trace_seq_ = 0;
  // Hot-path instrument handles (created once in the constructor; registry
  // references are stable for its lifetime).
  struct Instruments {
    obs::Counter* insert_attempts = nullptr;
    obs::Counter* insert_failures = nullptr;
    obs::Gauge* replicas_stored = nullptr;
    obs::Gauge* replicas_diverted = nullptr;
    obs::Counter* lookups = nullptr;
    obs::Counter* lookups_found = nullptr;
    obs::Counter* lookups_from_cache = nullptr;
    obs::Counter* lookup_pointer_hops = nullptr;
    obs::Counter* replicas_recreated = nullptr;
    obs::Counter* maintenance_pointers = nullptr;
    obs::Counter* files_lost = nullptr;
    obs::HistogramMetric* insert_size = nullptr;
    obs::HistogramMetric* insert_hops = nullptr;
    obs::HistogramMetric* lookup_hops = nullptr;
    obs::HistogramMetric* lookup_distance = nullptr;
    // Lookups no cache served.
    obs::Counter* cache_tier_misses = nullptr;
  };
  Instruments ins_;

  // Durable-store wiring (null => in-memory stores, the default).
  StorageEnv* durable_env_ = nullptr;
  DurableOptions durable_opts_;

  uint64_t total_capacity_ = 0;
  uint64_t total_stored_ = 0;
  bool any_file_inserted_ = false;
};

}  // namespace past

#endif  // SRC_PAST_PAST_NETWORK_H_
