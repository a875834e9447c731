// SortedRing: the live-node ring as a contiguous sorted array.
//
// Replaces the std::map<uint128, NodeId> oracle in PastryNetwork. A red-black
// tree spends a pointer-chasing cache miss per comparison and ~48 bytes of
// node overhead per entry; the sorted vector costs one 16-byte NodeId per
// live node, binary-searches without branches (conditional-select in the
// loop body), and walks neighbors by index arithmetic — which is what every
// consumer (k-closest, leaf-set audits, repair sweeps) actually does.
//
// Insert/Erase are O(n) memmoves; joins and failures are rare next to routes
// and k-closest queries, and a contiguous memmove at 100k entries is cheaper
// in practice than the equivalent tree rebalancing traffic.
#ifndef SRC_PASTRY_RING_H_
#define SRC_PASTRY_RING_H_

#include <cstddef>
#include <vector>

#include "src/common/node_id.h"

namespace past {

class SortedRing {
 public:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);

  size_t size() const { return ids_.size() + pending_.size(); }
  bool empty() const { return ids_.empty() && pending_.empty(); }
  const std::vector<NodeId>& ids() const {
    FlushBulk();
    return ids_;
  }
  const NodeId& at(size_t index) const {
    FlushBulk();
    return ids_[index];
  }

  // --- bulk load ---
  //
  // A sorted-vector insert is an O(n) memmove; building a million-node ring
  // one insert at a time moves terabytes. Between BeginBulkLoad() and
  // EndBulkLoad(), Insert() appends to a side buffer instead, and any
  // ordered read (ids/at/Contains/KClosest/...) first folds the buffer in
  // with one sort + inplace_merge — so observable state is always identical
  // to the eager schedule, and a query-free build costs O(n log n) total.
  // Contract: callers must not bulk-Insert an id already present (the
  // membership check is the caller's, e.g. PastryNetwork::Join's IsAlive).
  void BeginBulkLoad() { bulk_ = true; }
  void EndBulkLoad() {
    FlushBulk();
    bulk_ = false;
  }

  // Inserts `id` keeping the array sorted. Returns false if already present.
  bool Insert(const NodeId& id);

  // Removes `id`. Returns false if absent.
  bool Erase(const NodeId& id);

  bool Contains(const NodeId& id) const;

  // Index of `id`, or kNotFound.
  size_t IndexOf(const NodeId& id) const;

  // Index of the first element with value >= v; size() if none (callers wrap
  // to 0 for ring traversal). Branchless binary search.
  size_t LowerBound(uint128 v) const;

  // The k live nodes numerically closest to `key`, nearest first, ties by
  // NodeId::CloserTo. Identical results to the former std::map two-cursor
  // walk in PastryNetwork::KClosestLive.
  std::vector<NodeId> KClosest(const NodeId& key, size_t k) const;

  // KClosest(key, 1).front() without the vector: the closer of the two ring
  // neighbors around the key's insertion point, same tie rule. A
  // default-constructed NodeId when the ring is empty.
  NodeId Closest(const NodeId& key) const;

  // Iteration over NodeIds in ring order.
  std::vector<NodeId>::const_iterator begin() const {
    FlushBulk();
    return ids_.begin();
  }
  std::vector<NodeId>::const_iterator end() const {
    FlushBulk();
    return ids_.end();
  }

 private:
  // Folds pending bulk inserts into the sorted array. Logically const: the
  // observable sequence is exactly what eager inserts would have produced.
  void FlushBulk() const;

  mutable std::vector<NodeId> ids_;      // sorted ascending by value()
  mutable std::vector<NodeId> pending_;  // bulk-mode inserts, unordered
  bool bulk_ = false;
};

}  // namespace past

#endif  // SRC_PASTRY_RING_H_
