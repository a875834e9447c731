// The per-node file cache (paper section 4).
//
// The cache lives in the "unused" portion of the node's advertised disk: its
// budget is capacity - replica bytes, so it shrinks automatically as primary
// and diverted replicas accumulate, degrading gracefully with utilization. A
// file routed through a node during insert or lookup is admitted if its size
// is below a fraction `c` of the node's current cache budget.
#ifndef SRC_CACHE_FILE_CACHE_H_
#define SRC_CACHE_FILE_CACHE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/eviction_policy.h"
#include "src/common/flat_table.h"
#include "src/common/file_id.h"
#include "src/obs/metrics.h"

namespace past {

class FileCache {
 public:
  using ContentRef = std::shared_ptr<const std::string>;

  // `c_fraction` is the admission fraction c (1 in the paper's experiment).
  // `insertion_cost_cap` bounds how much of the budget one admission may
  // evict (flash-crowd guard); 0 disables the cap.
  FileCache(std::unique_ptr<EvictionPolicy> policy, double c_fraction,
            double insertion_cost_cap = 0.0);

  // Tries to admit a file given the current budget (capacity - replica
  // bytes). Evicts victims as needed. Returns true if cached. `content` is
  // optional (trace experiments track sizes only).
  bool Insert(const FileId& id, uint64_t size, uint64_t budget, ContentRef content = nullptr);

  // Whether the file is currently cached; records a hit (and policy touch)
  // when `touch` is true.
  bool Lookup(const FileId& id, bool touch = true);

  // Removes a specific file (it was reclaimed, or became a replica here).
  bool Remove(const FileId& id);

  // Size of a cached file, if present (no hit recorded).
  std::optional<uint64_t> SizeOf(const FileId& id) const;

  // Cached bytes of the file, if the cache holds them (no hit recorded).
  ContentRef ContentOf(const FileId& id) const;

  // Evicts until used() fits within `budget` (called after a replica store
  // shrinks the cache's share of the disk).
  void ShrinkToBudget(uint64_t budget);

  uint64_t used() const { return used_; }
  size_t count() const { return entries_.size(); }

  // Snapshot of (fileId, size) for every cached entry, in unspecified order.
  // Invariant checkers cross-check these against used()/count() and against
  // the node's replica table; not for hot paths.
  std::vector<std::pair<FileId, uint64_t>> Entries() const;
  const EvictionPolicy& policy() const { return *policy_; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t insertions() const { return insertions_; }
  uint64_t evictions() const { return evictions_; }

  // Registers this cache's tallies ("node.cache.*") in `registry`. The
  // registry counters are brought up to date by SyncBoundMetrics(), not on
  // every event: hit/miss recording on the lookup hot path stays a plain
  // field increment, and PastNode::RefreshGauges() syncs the deltas before
  // any snapshot is taken. Pass nullptr to unbind.
  void BindMetrics(obs::MetricsRegistry* registry);

  // Pushes tallies accumulated since the last sync into the bound registry
  // counters (no-op when unbound). Idempotent between events.
  void SyncBoundMetrics() const;

 private:
  struct Entry {
    uint64_t size = 0;
    ContentRef content;
  };

  // Drops `id` from the byte accounting (policy already updated).
  void EvictEntry(const FileId& id);

  std::unique_ptr<EvictionPolicy> policy_;
  double c_fraction_;
  double insertion_cost_cap_;
  FlatTable<FileId, Entry, FileIdHash> entries_;
  uint64_t used_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t insertions_ = 0;
  uint64_t evictions_ = 0;
  // Bound registry counters and the values already pushed to them; updated
  // only inside SyncBoundMetrics (mutable: syncing is logically const).
  obs::Counter* metric_hits_ = nullptr;
  obs::Counter* metric_misses_ = nullptr;
  obs::Counter* metric_insertions_ = nullptr;
  obs::Counter* metric_evictions_ = nullptr;
  mutable uint64_t synced_hits_ = 0;
  mutable uint64_t synced_misses_ = 0;
  mutable uint64_t synced_insertions_ = 0;
  mutable uint64_t synced_evictions_ = 0;
};

}  // namespace past

#endif  // SRC_CACHE_FILE_CACHE_H_
