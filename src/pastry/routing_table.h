// Pastry routing table (paper section 2.1).
//
// ceil(128/b) rows of 2^b - 1 usable entries. The entry at (row n, column d)
// refers to a node whose nodeId shares the first n digits with the owner and
// whose (n+1)-th digit is d (the owner's own digit column is unused). Among
// the many qualifying nodes, the table prefers one close to the owner in the
// proximity metric — this is the source of Pastry's route locality.
//
// Entries are interned u32 directory indices, and rows are raw 2^b-entry
// index arrays carved from an optional Arena: a populated b=4 row costs 64
// bytes instead of the 384+ of a std::vector<std::optional<NodeId>>, and the
// proximity metric lives in the shared NodeDirectory instead of a per-node
// std::function closure. The table keeps its owner's index too, so the
// proximity preference reads the index-keyed metric and every membership
// test is a u32 compare.
#ifndef SRC_PASTRY_ROUTING_TABLE_H_
#define SRC_PASTRY_ROUTING_TABLE_H_

#include <optional>
#include <vector>

#include "src/common/arena.h"
#include "src/common/node_id.h"
#include "src/pastry/directory.h"

namespace past {

class RoutingTable {
 public:
  // `dir` owns interning and the proximity metric (dir->distance null means
  // no proximity preference — an incumbent entry is never displaced). The
  // owner is interned here. `arena`, when given, backs the row storage and
  // must outlive the table.
  RoutingTable(const NodeId& owner, int b, const NodeDirectory* dir, Arena* arena = nullptr);
  ~RoutingTable();

  RoutingTable(const RoutingTable&) = delete;
  RoutingTable& operator=(const RoutingTable&) = delete;

  const NodeId& owner() const { return owner_; }
  int rows() const { return rows_; }
  int columns() const { return columns_; }

  // Entry lookup; nullopt when the slot is empty.
  std::optional<NodeId> Get(int row, int column) const;

  // Index-level lookup for hot paths; kInvalidNodeIndex when empty (or out
  // of range).
  uint32_t GetIndex(int row, int column) const {
    if (row < 0 || row >= rows_ || column < 0 || column >= columns_) {
      return kInvalidNodeIndex;
    }
    const uint32_t* slots = row_slots_[row];
    return slots == nullptr ? kInvalidNodeIndex : slots[column];
  }

  // Offers the node interned at `index` as a candidate. It is placed in its
  // unique (row, column) slot if the slot is empty or it is closer (by
  // proximity) than the incumbent. Returns true if the table changed.
  bool ConsiderIndex(uint32_t index);
  // Same for `id`, which is interned first (a lookup for any id an overlay
  // already knows).
  bool Consider(const NodeId& id) { return ConsiderIndex(dir_->intern(dir_->ctx, id)); }

  // Removes the node interned at `index` from its slot. Returns true if
  // found.
  bool RemoveIndex(uint32_t index);
  // Same for `id`; an id never interned is in no slot.
  bool Remove(const NodeId& id) {
    uint32_t index = dir_->find(dir_->ctx, id);
    return index != kInvalidNodeIndex && RemoveIndex(index);
  }

  // Calls f(index) for every populated entry, in (row, column) order.
  template <typename F>
  void ForEachIndex(F&& f) const {
    for (int r = 0; r < rows_; ++r) {
      const uint32_t* slots = row_slots_[r];
      if (slots == nullptr) {
        continue;
      }
      for (int c = 0; c < columns_; ++c) {
        if (slots[c] != kInvalidNodeIndex) {
          f(slots[c]);
        }
      }
    }
  }

  // All populated entries.
  std::vector<NodeId> Entries() const;

  // Populated entries in one row (used for lazy repair: row-mates are asked
  // for a replacement referring to the failed slot).
  std::vector<NodeId> Row(int row) const;

  // Number of populated slots.
  size_t size() const { return populated_; }

 private:
  // The (row, column) slot the node interned at `index` belongs to, or null
  // for the owner itself and, when `allocate` is false, for a row never
  // allocated.
  uint32_t* EntryFor(uint32_t index, bool allocate);

  // Rows are allocated on first use: with random nodeIds only the first
  // ~log_16(N) rows ever populate (about 5 at 100k nodes), so eagerly
  // allocating all 32 rows wastes ~10x the memory the table actually needs.
  uint32_t* EnsureRow(int row);

  void* AllocBytes(size_t bytes);
  void FreeBytes(void* p, size_t bytes);

  NodeId owner_;
  const NodeDirectory* dir_;
  Arena* arena_;
  uint32_t owner_index_;
  int b_;
  int rows_;
  int columns_;
  uint32_t** row_slots_;  // [rows_], each null or a columns_-entry index array
  size_t populated_ = 0;
};

}  // namespace past

#endif  // SRC_PASTRY_ROUTING_TABLE_H_
