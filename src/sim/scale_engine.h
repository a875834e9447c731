// ScaleEngine: epoch-sharded deterministic simulation driver for
// extreme-scale PAST runs (100k+ nodes).
//
// The event-driven op engine executes one protocol message at a time, which
// is exactly right for fault-injection soaks but leaves every core but one
// idle at 100k nodes. The scale engine trades message-level interleaving for
// an epoch model with a hard determinism contract:
//
//   Phase A (parallel)  Each epoch's client operations are partitioned over
//                       shards by routing-key range (shard s owns keys in
//                       [s, s+1) * 2^128 / jobs). Shards route and plan
//                       concurrently against *frozen* membership and storage
//                       state: Route() runs with RouteOptions redirecting
//                       stats into per-shard collectors and deferring all
//                       Forget side effects, so Phase A is read-only.
//   Barrier             Route accounting is replayed into the network ledger
//                       in canonical op order, per-shard deferred forgets are
//                       applied in shard order (Forget is commutative pure
//                       removal), per-shard collectors are merged.
//   Phase B (serial)    Storage decisions commit in op order: each insert
//                       runs the StoreChain steps (store_chain.h) that
//                       InsertOp runs on message delivery, back to back.
//   Epoch edge          Churn (crashes, joins) runs serially between
//                       epochs, so membership only changes at barriers.
//                       Periodic maintenance sweeps diagnose in parallel
//                       and repair serially: RepairOp::NeedsRepair runs over
//                       every tracked file in ParallelChunks on the pool,
//                       in the file set's iteration order, then RepairFile
//                       runs serially, in that order, on the flagged few;
//                       the reconcile pass collects its actions per chunk of
//                       live nodes and applies them serially in live-node
//                       order. The diagnosis is exact because the network
//                       is quiescent here (no delivery or timer pending,
//                       no join batch; MaintenanceSweep(pool) checks): a
//                       repair of one file writes only that file's entries
//                       and node byte counts, which no other file's
//                       verdict reads.
//
// Because op generation, Phase B, churn and every sweep mutation are serial,
// and Phase A and the sweep's scans are pure (Phase A with per-op derived
// RNG), the run is bit-identical for any --jobs value;
// jobs=1 *is* the serial reference (same code path, one shard). The SHA-1
// state fingerprint at the end of a run (ring membership, leaf sets, every
// store's sorted contents, counters) is the equality witness the tier-1
// shard-invariance tests compare.
//
// The epoch model also yields a clean mean-field validation target: with
// maintenance disabled between sweeps, a file inserted with k replicas that
// sees t epochs of random crashes (survival s per epoch-product) has
// Binomial(k, s) live replicas — the periodic-repair specialization of the
// birth-death replication models (PAPERS.md: Sun et al.). BuildReport()
// measures the empirical replica distribution and its total-variation
// distance from that prediction (MeasureMeanField).
#ifndef SRC_SIM_SCALE_ENGINE_H_
#define SRC_SIM_SCALE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/file_id.h"
#include "src/common/flat_table.h"
#include "src/common/node_id.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/crypto/sha1.h"
#include "src/net/transport_stats.h"
#include "src/past/past_network.h"
#include "src/pastry/network.h"

namespace past {

struct ScaleConfig {
  size_t nodes = 10'000;
  size_t jobs = 1;
  uint64_t seed = 1;

  size_t epochs = 6;
  size_t inserts_per_epoch = 2'000;
  size_t lookups_per_epoch = 2'000;
  size_t crashes_per_epoch = 0;
  size_t joins_per_epoch = 0;
  // Run a full MaintenanceSweep after every `sweep_period` epochs (0 = never).
  size_t sweep_period = 0;

  uint64_t node_capacity = 50'000'000;  // bytes per storage node
  uint64_t mean_file_size = 100'000;    // exponential size model, bytes

  // PAST parameters; the engine forces cache_mode=kNone (a cache hit mutates
  // per-node counters, which would break Phase A purity) and
  // enable_maintenance=false (repairs happen only at sweep barriers, which
  // is what makes the mean-field window well-defined).
  PastConfig past;
  PastryConfig pastry;
};

struct ScaleEpochStats {
  size_t epoch = 0;
  uint64_t inserts = 0;
  uint64_t inserts_stored = 0;
  uint64_t lookups = 0;
  uint64_t lookups_found = 0;
  uint64_t route_hops = 0;
  uint64_t deferred_forgets = 0;
  size_t crashes = 0;
  size_t joins = 0;
  bool swept = false;
};

struct ScaleReport {
  // Workload totals.
  uint64_t inserts = 0;
  uint64_t inserts_stored = 0;
  uint64_t lookups = 0;
  uint64_t lookups_found = 0;
  uint64_t route_hops = 0;
  uint64_t events = 0;  // ops + churn + route hops
  size_t live_nodes = 0;
  uint64_t files_tracked = 0;
  double utilization = 0.0;

  // Determinism witnesses.
  std::string state_fingerprint;     // SHA-1 over final network state
  std::string schedule_fingerprint;  // SHA-1 chained over per-op outcomes

  // Mean-field replica-distribution comparison (empty unless crashes and a
  // sweep happened: the measurement window is [last sweep, end of run]).
  std::vector<uint64_t> replica_histogram;   // index = live replicas, 0..k
  std::vector<double> predicted_histogram;   // Binomial(k, s) * eligible
  double survival_probability = 1.0;         // s over the measurement window
  size_t epochs_since_sweep = 0;             // t
  uint64_t eligible_files = 0;
  double tv_distance = 0.0;  // 0.5 * sum |empirical - predicted| fractions
};

class ScaleEngine {
 public:
  explicit ScaleEngine(const ScaleConfig& config);
  ~ScaleEngine();

  ScaleEngine(const ScaleEngine&) = delete;
  ScaleEngine& operator=(const ScaleEngine&) = delete;

  // Joins the initial `config.nodes` storage nodes.
  void BuildNetwork();

  // One epoch: generate ops, Phase A (sharded), barrier, Phase B, churn,
  // and a sweep when the period divides the epoch count so far.
  ScaleEpochStats RunEpoch();

  // BuildNetwork + all epochs + BuildReport.
  ScaleReport Run();

  // Assembles the report for the epochs run so far (callers that time
  // BuildNetwork / RunEpoch themselves use this instead of Run).
  ScaleReport BuildReport() const;

  // Valid after Run() / RunEpoch(); fingerprints are recomputed on demand.
  std::string StateFingerprint() const;

  PastNetwork& network() { return *net_; }
  const ScaleConfig& config() const { return config_; }
  const std::vector<ScaleEpochStats>& epoch_stats() const { return epoch_stats_; }
  // Per-shard route accounting accumulated over the whole run, and the
  // canonical op-order totals they must sum to (validate_metrics_json.py
  // checks the integer fields match exactly).
  const std::vector<TransportStats>& shard_stats() const { return shard_stats_; }
  const TransportStats& op_route_totals() const { return op_route_totals_; }

 private:
  // What an op keeps of its RouteResult. The full result carries the hop
  // path in a heap vector; an epoch holds hundreds of thousands of planned
  // ops concurrently, and nothing downstream of planning reads the interior
  // hops — only the endpoint and the totals survive the call.
  struct RouteSummary {
    NodeId destination;         // path.back(); meaningless when !reached
    double distance = 0.0;      // sum of proximity distances over all hops
    uint32_t hops = 0;          // path length minus one; 0 when unreached
    bool reached = false;       // origin was known and alive
    bool delivered = true;      // no malicious drop en route
    bool stopped_early = false; // stop predicate fired before the root

    static RouteSummary Of(const RouteResult& r) {
      RouteSummary s;
      s.destination = r.destination();
      s.distance = r.distance;
      s.hops = static_cast<uint32_t>(r.hops());
      s.reached = !r.path.empty();
      s.delivered = r.delivered;
      s.stopped_early = r.stopped_early;
      return s;
    }
  };

  struct Op {
    enum Kind : uint8_t { kInsert, kLookup };
    Kind kind = kInsert;
    uint32_t shard = 0;
    NodeId origin;
    FileId file;
    NodeId key;
    uint64_t size = 0;  // insert only

    // Phase A plan.
    RouteSummary route;
    PastNetwork::InsertPlan plan;     // insert: k closest + witness
    bool found = false;               // lookup
    NodeId served;                    // lookup
    bool via_pointer = false;         // lookup
    uint32_t extra_hops = 0;          // lookup: pointer / probe hops
    double extra_distance = 0.0;
  };

  struct TrackedFile {
    FileId id;
    uint64_t size = 0;
  };

  uint32_t ShardOf(const NodeId& key) const;
  void GenerateOps(Rng& epoch_rng, std::vector<Op>& ops);
  void PlanShard(std::vector<Op>& ops, uint32_t shard);
  void PlanInsert(Op& op, const RouteOptions& options);
  void PlanLookup(Op& op, const RouteOptions& options);
  void CommitInsert(Op& op, ScaleEpochStats& stats);
  void CommitLookup(const Op& op, ScaleEpochStats& stats);
  void ApplyChurn(Rng& epoch_rng, ScaleEpochStats& stats);
  // Live replicas per file, counted over every live node's store.
  FlatTable<FileId, uint32_t, FileIdHash> LiveReplicaCounts() const;
  void SnapshotEligibleFiles();
  void MeasureMeanField(ScaleReport& report) const;
  void FingerprintOp(const Op& op);

  ScaleConfig config_;
  std::unique_ptr<PastNetwork> net_;
  std::unique_ptr<ThreadPool> pool_;

  size_t epoch_ = 0;
  std::vector<TrackedFile> files_;              // committed inserts, in order
  std::vector<ScaleEpochStats> epoch_stats_;

  // Per-shard deferred forgets / stats, reused across epochs.
  std::vector<std::vector<DeferredForget>> shard_forgets_;
  // Per-shard op indices, filled during generation so each Phase A task
  // walks only its own ops instead of scanning the whole epoch's list.
  std::vector<std::vector<uint32_t>> shard_ops_;
  std::vector<TransportStats> shard_stats_;
  TransportStats op_route_totals_;

  // Mean-field bookkeeping: survival over the window since the last sweep.
  double survival_probability_ = 1.0;
  size_t epochs_since_sweep_ = 0;
  std::vector<FileId> eligible_files_;  // files with full replication at sweep

  Sha1 schedule_hash_;  // chained over op outcomes as they commit
};

}  // namespace past

#endif  // SRC_SIM_SCALE_ENGINE_H_
