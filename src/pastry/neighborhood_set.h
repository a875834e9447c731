// Pastry neighborhood set: the M nodes closest to the owner according to the
// proximity metric (paper section 2.1). Not used in routing; it seeds
// locality-aware state during node addition.
//
// Members are stored as interned directory indices in a fixed inline array
// (M = 32 in the paper's evaluation) — 4 bytes per member instead of a
// 16-byte id in a heap vector — and so is the owner. Membership is a u32
// scan and proximity the directory's index-keyed metric; ids are resolved
// only on the cold paths that need them.
#ifndef SRC_PASTRY_NEIGHBORHOOD_SET_H_
#define SRC_PASTRY_NEIGHBORHOOD_SET_H_

#include <memory>
#include <vector>

#include "src/common/node_id.h"
#include "src/pastry/directory.h"

namespace past {

class NeighborhoodSet {
 public:
  static constexpr int kInlineCapacity = 32;

  // `dir` must be non-null: it owns the id <-> index mapping and the
  // proximity metric (dir->distance may be null: all nodes equidistant,
  // giving insertion order). The owner is interned here.
  NeighborhoodSet(const NodeId& owner, int capacity, const NodeDirectory* dir);

  // Considers the node interned at `index`; keeps the `capacity` proximally
  // closest nodes. Distances are read live, never cached: a member that
  // fails moves to 1e9 at once.
  bool ConsiderIndex(uint32_t index);
  bool RemoveIndex(uint32_t index);
  bool ContainsIndex(uint32_t index) const;

  // The same for an id: Consider interns it (a lookup for any id an overlay
  // already knows); Remove and Contains never intern.
  bool Consider(const NodeId& id) { return ConsiderIndex(dir_->intern(dir_->ctx, id)); }
  bool Remove(const NodeId& id) { return RemoveIndex(dir_->find(dir_->ctx, id)); }
  bool Contains(const NodeId& id) const { return ContainsIndex(dir_->find(dir_->ctx, id)); }

  size_t size() const { return static_cast<size_t>(count_); }

  // Member i by increasing proximity distance.
  const NodeId& member(size_t i) const { return dir_->resolve(dir_->ctx, data()[i]); }
  uint32_t member_index(size_t i) const { return data()[i]; }

  // Materialized member ids (cold paths: joins, dumps, tests).
  std::vector<NodeId> members() const;

 private:
  double DistanceTo(uint32_t index) const {
    return dir_->distance != nullptr ? dir_->distance(dir_->ctx, owner_index_, index) : 0.0;
  }
  uint32_t* data() { return spill_ ? spill_->data() : inline_idx_; }
  const uint32_t* data() const { return spill_ ? spill_->data() : inline_idx_; }

  const NodeDirectory* dir_;
  uint32_t owner_index_;
  int capacity_;
  int count_ = 0;
  uint32_t inline_idx_[kInlineCapacity];
  std::unique_ptr<std::vector<uint32_t>> spill_;  // capacity_ > kInlineCapacity
};

}  // namespace past

#endif  // SRC_PASTRY_NEIGHBORHOOD_SET_H_
