// Cache eviction policy interface (paper section 4).
//
// PAST caches files in the unused portion of each node's disk. The paper's
// policy is GreedyDual-Size (Cao & Irani); LRU is evaluated as the baseline.
// Policies only track metadata and ordering; byte accounting lives in
// FileCache.
#ifndef SRC_CACHE_EVICTION_POLICY_H_
#define SRC_CACHE_EVICTION_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "src/common/file_id.h"

namespace past {

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  // A file entered the cache.
  virtual void OnInsert(const FileId& id, uint64_t size) = 0;

  // A cached file was used (cache hit).
  virtual void OnHit(const FileId& id, uint64_t size) = 0;

  // A file left the cache for reasons other than eviction (reclaim, or it
  // became a replica).
  virtual void OnRemove(const FileId& id) = 0;

  // Selects, removes from policy state, and returns the eviction victim.
  // nullopt when the policy tracks nothing.
  virtual std::optional<FileId> EvictVictim() = 0;

  // Number of files the policy tracks; equals the owning cache's count().
  virtual size_t size() const = 0;

  virtual std::string name() const = 0;
};

}  // namespace past

#endif  // SRC_CACHE_EVICTION_POLICY_H_
