// GreedyDual-Size eviction (paper section 4; Cao & Irani, USITS'97).
//
// Each cached file d carries a weight H_d = L + c(d)/s(d), where c(d) is the
// retrieval cost (1 in PAST, maximizing hit rate), s(d) the file size, and L
// an inflation value. The victim is the file with minimal H; on eviction L
// rises to the victim's H. This "inflation" formulation is arithmetically
// identical to the paper's description (subtracting H_victim from all
// remaining weights) but runs in O(log n) per operation.
//
// The weights live in an IndexedHeap ordered by (H, fileId): a hit re-keys
// the file in place, a removal swaps the last heap item into its slot, and
// eviction pops the root. Ties on H go to the smaller fileId.
#ifndef SRC_CACHE_GDS_POLICY_H_
#define SRC_CACHE_GDS_POLICY_H_

#include "src/cache/eviction_policy.h"
#include "src/cache/indexed_heap.h"

namespace past {

class GdsPolicy : public EvictionPolicy {
 public:
  // `cost` is c(d), identical for all files (PAST sets it to 1).
  explicit GdsPolicy(double cost = 1.0) : cost_(cost) {}

  void OnInsert(const FileId& id, uint64_t size) override;
  void OnHit(const FileId& id, uint64_t size) override;
  void OnRemove(const FileId& id) override;
  std::optional<FileId> EvictVictim() override;
  size_t size() const override { return queue_.size(); }
  std::string name() const override { return "GD-S"; }

  double inflation() const { return inflation_; }

 private:
  void Enqueue(const FileId& id, uint64_t size);

  double cost_;
  double inflation_ = 0.0;  // L
  IndexedHeap<double> queue_;  // keyed by H
};

}  // namespace past

#endif  // SRC_CACHE_GDS_POLICY_H_
