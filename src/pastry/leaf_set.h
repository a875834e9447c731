// Pastry leaf set: the l/2 numerically closest larger and l/2 numerically
// closest smaller nodeIds relative to the owning node (paper section 2.1).
//
// The leaf set is the backbone of both routing correctness (final-hop
// delivery) and PAST's replica placement (the k nodes closest to a fileId
// are, by the constraint k <= l/2 + 1, always inside the root's leaf set).
// When fewer than l nodes exist on either side the two sides may overlap;
// consumers that need "distinct nodes" use All().
//
// Storage is two fixed-size inline sorted arrays (ids plus their interned
// dense indices, SoA) — no per-node heap vectors. The final routing hop
// scans every member with an aliveness check per member; the index array
// turns each of those checks into a dense bit-array load instead of an
// id -> index hash probe. Paper parameters (l = 2k = 10, and the evaluated
// l = 32) fit inline; larger ablation configs spill to one heap block.
#ifndef SRC_PASTRY_LEAF_SET_H_
#define SRC_PASTRY_LEAF_SET_H_

#include <memory>
#include <span>
#include <vector>

#include "src/common/node_id.h"
#include "src/pastry/directory.h"

namespace past {

class LeafSet {
 public:
  // Inline capacity covers the paper's evaluated l = 32 (16 per side);
  // larger capacities allocate a spill block at construction.
  static constexpr int kInlinePerSide = 16;

  // `dir` supplies id interning for the index arrays; standalone sets (unit
  // tests) may pass nullptr and get kInvalidNodeIndex entries.
  LeafSet(const NodeId& owner, int capacity_per_side, const NodeDirectory* dir = nullptr);

  const NodeId& owner() const { return owner_; }
  int capacity_per_side() const { return capacity_per_side_; }

  // Considers `id` for membership; returns true if it was inserted (possibly
  // evicting the farthest member on its side). `index`, when the caller has
  // it, must be id's interned index; otherwise id is interned on insertion.
  bool Insert(const NodeId& id, uint32_t index = kInvalidNodeIndex);

  // Removes `id` from both sides. Returns true if it was present.
  bool Remove(const NodeId& id);

  bool Contains(const NodeId& id) const;

  // Members on the clockwise (numerically larger, wrapping) side, ordered by
  // increasing ring distance from the owner.
  std::span<const NodeId> larger() const { return {side_ids(0), static_cast<size_t>(count_[0])}; }
  // Members on the counterclockwise side, ordered likewise.
  std::span<const NodeId> smaller() const { return {side_ids(1), static_cast<size_t>(count_[1])}; }

  // Interned directory indices parallel to larger()/smaller().
  std::span<const uint32_t> larger_indices() const {
    return {side_idx(0), static_cast<size_t>(count_[0])};
  }
  std::span<const uint32_t> smaller_indices() const {
    return {side_idx(1), static_cast<size_t>(count_[1])};
  }

  // Distinct members of both sides (owner excluded): larger(), then the
  // members of smaller() that are not in larger().
  std::vector<NodeId> All() const;

  // True if `id` is a member of larger(). The sides share members only in
  // networks of at most l nodes. A member of larger() is no farther
  // clockwise from the owner than its farthest one, so in the usual
  // disjoint case a smaller-side member is ruled out by one distance
  // compare, without the linear scan.
  bool InLarger(const NodeId& id) const;

  // True if `key` falls inside the id range covered by the leaf set
  // (between the farthest smaller and farthest larger member, owner
  // inclusive). When true, the numerically closest node to `key` is a member
  // (or the owner) and routing can finish in one hop.
  bool Covers(const NodeId& key) const;

  // The member (or owner) numerically closest to `key`.
  NodeId ClosestTo(const NodeId& key) const;

  size_t size() const;
  bool full() const;

 private:
  // Inserts into one side kept sorted by directed distance. s: 0=larger
  // (clockwise), 1=smaller.
  bool InsertSide(int s, const NodeId& id, uint32_t& index);

  NodeId* side_ids(int s) { return spill_ ? spill_->ids[s].data() : inline_ids_[s]; }
  const NodeId* side_ids(int s) const { return spill_ ? spill_->ids[s].data() : inline_ids_[s]; }
  uint32_t* side_idx(int s) { return spill_ ? spill_->idx[s].data() : inline_idx_[s]; }
  const uint32_t* side_idx(int s) const {
    return spill_ ? spill_->idx[s].data() : inline_idx_[s];
  }

  NodeId owner_;
  const NodeDirectory* dir_;
  int capacity_per_side_;
  int count_[2] = {0, 0};  // [0]=larger, [1]=smaller
  NodeId inline_ids_[2][kInlinePerSide];
  uint32_t inline_idx_[2][kInlinePerSide];
  // Ablation configs with capacity_per_side > kInlinePerSide keep both sides
  // in one heap block instead; the inline arrays go unused.
  struct Spill {
    std::vector<NodeId> ids[2];
    std::vector<uint32_t> idx[2];
  };
  std::unique_ptr<Spill> spill_;
};

}  // namespace past

#endif  // SRC_PASTRY_LEAF_SET_H_
