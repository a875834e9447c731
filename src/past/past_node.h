// The PAST storage layer living on one Pastry node: the local store, the
// file cache, the node's smartcard (for signing store/reclaim receipts), and
// the local accept/divert decisions of section 3.3.1.
#ifndef SRC_PAST_PAST_NODE_H_
#define SRC_PAST_PAST_NODE_H_

#include <memory>

#include "src/cache/file_cache.h"
#include "src/common/node_id.h"
#include "src/common/rng.h"
#include "src/crypto/smartcard.h"
#include "src/obs/metrics.h"
#include "src/past/config.h"
#include "src/storage/node_store.h"

namespace past {

class PastNode {
 public:
  PastNode(const NodeId& id, const PastConfig& config, uint64_t capacity_bytes, Rng& rng);

  const NodeId& id() const { return id_; }
  NodeStore& store() { return store_; }
  const NodeStore& store() const { return store_; }

  // Null when caching is disabled.
  FileCache* cache() { return cache_.get(); }
  const FileCache* cache() const { return cache_.get(); }

  Smartcard& card() { return card_; }

  // Node-scoped metrics ("node.*" names). The cache records its tallies here
  // live; store occupancy gauges are synced by RefreshGauges() so a snapshot
  // is cheap and always consistent with the store. Network-wide aggregation
  // (PastNetwork::SnapshotMetrics) merges these registries across live nodes.
  //
  // The registry is materialized on first access: a million-node simulation
  // with caching off never reads per-node metrics on the hot path, and the
  // map nodes for the standard instruments would otherwise be the largest
  // fixed heap cost of a node. Hot-path tallies (NoteServedOp) accumulate in
  // plain fields; RefreshGauges() — which every snapshot path already calls
  // first — syncs them into the registry, so readers see identical values.
  obs::MetricsRegistry& metrics() const { return EnsureMetrics(); }
  void RefreshGauges() const;

  // Policy checks (S_D / F_N thresholds of section 3.3.1).
  bool WouldAcceptPrimary(uint64_t size) const;
  bool WouldAcceptDiverted(uint64_t size) const;

  // Load signal for placement policies: served-operation count since the
  // last decay. Incremented when this node stores a replica for an insert or
  // serves a fetch; halved by MaintenanceSweep so the tally tracks *recent*
  // load rather than lifetime traffic. The cumulative count is exported as
  // the per-node obs counter "node.load.ops".
  uint64_t recent_load() const { return recent_load_; }
  void NoteServedOp() {
    ++recent_load_;
    ++load_ops_total_;
  }
  void DecayRecentLoad() { recent_load_ /= 2; }

  // Stores a replica, displacing cached content as needed. The caller has
  // already run the policy check. Returns false if it physically cannot fit.
  bool StoreReplica(const FileId& id, ReplicaKind kind, uint64_t size,
                    FileCertificateRef certificate, FileContentRef content = nullptr);

  // Removes a replica, returning its size if present.
  std::optional<uint64_t> RemoveReplica(const FileId& id);

  // Tries to cache a file (route-side caching, section 4). Never caches a
  // file this node holds as a replica.
  void CacheFile(const FileId& id, uint64_t size, FileContentRef content = nullptr);

  // Issues a signed store receipt for a file this node is responsible for.
  StoreReceipt MakeStoreReceipt(const FileId& id);

  // Issues a signed reclaim receipt for `bytes` freed.
  ReclaimReceipt MakeReclaimReceipt(const FileId& id, uint64_t bytes);

 private:
  // Creates the registry (with the standard instrument schema) on first use.
  obs::MetricsRegistry& EnsureMetrics() const;

  NodeId id_;
  const PastConfig& config_;
  NodeStore store_;
  // Mutable so read-side snapshots (const network traversals) can sync the
  // occupancy gauges before serializing. Null until first read (or eagerly
  // created when a cache needs to record tallies live).
  mutable std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<FileCache> cache_;
  Smartcard card_;
  uint64_t recent_load_ = 0;
  uint64_t load_ops_total_ = 0;  // lifetime serves; exported as "node.load.ops"
};

}  // namespace past

#endif  // SRC_PAST_PAST_NODE_H_
