// Least-Recently-Used eviction, the comparison baseline in Figure 8.
//
// Every insert or hit stamps the file with the next value of a per-policy
// touch counter; the victim is the file with the smallest stamp, kept at the
// root of the same IndexedHeap that GD-S uses.
#ifndef SRC_CACHE_LRU_POLICY_H_
#define SRC_CACHE_LRU_POLICY_H_

#include "src/cache/eviction_policy.h"
#include "src/cache/indexed_heap.h"

namespace past {

class LruPolicy : public EvictionPolicy {
 public:
  void OnInsert(const FileId& id, uint64_t size) override;
  void OnHit(const FileId& id, uint64_t size) override;
  void OnRemove(const FileId& id) override;
  std::optional<FileId> EvictVictim() override;
  size_t size() const override { return order_.size(); }
  std::string name() const override { return "LRU"; }

 private:
  uint64_t touches_ = 0;
  IndexedHeap<uint64_t> order_;  // keyed by last touch; least recent at root
};

}  // namespace past

#endif  // SRC_CACHE_LRU_POLICY_H_
