#include "src/pastry/routing_table.h"

#include <new>

namespace past {

RoutingTable::RoutingTable(const NodeId& owner, int b, const NodeDirectory* dir, Arena* arena)
    : owner_(owner),
      dir_(dir),
      arena_(arena),
      owner_index_(dir->intern(dir->ctx, owner)),
      b_(b),
      rows_(NodeId::NumDigits(b)),
      columns_(1 << b) {
  row_slots_ = static_cast<uint32_t**>(AllocBytes(sizeof(uint32_t*) * static_cast<size_t>(rows_)));
  for (int r = 0; r < rows_; ++r) {
    row_slots_[r] = nullptr;
  }
}

RoutingTable::~RoutingTable() {
  for (int r = 0; r < rows_; ++r) {
    if (row_slots_[r] != nullptr) {
      FreeBytes(row_slots_[r], sizeof(uint32_t) * static_cast<size_t>(columns_));
    }
  }
  FreeBytes(row_slots_, sizeof(uint32_t*) * static_cast<size_t>(rows_));
}

void* RoutingTable::AllocBytes(size_t bytes) {
  if (arena_ != nullptr) {
    return arena_->Allocate(bytes);
  }
  return ::operator new(bytes, std::align_val_t{Arena::kAlignment});
}

void RoutingTable::FreeBytes(void* p, size_t bytes) {
  if (arena_ != nullptr) {
    arena_->Deallocate(p, bytes);
  } else {
    ::operator delete(p, std::align_val_t{Arena::kAlignment});
  }
}

uint32_t* RoutingTable::EnsureRow(int row) {
  uint32_t*& slots = row_slots_[row];
  if (slots == nullptr) {
    slots = static_cast<uint32_t*>(AllocBytes(sizeof(uint32_t) * static_cast<size_t>(columns_)));
    for (int c = 0; c < columns_; ++c) {
      slots[c] = kInvalidNodeIndex;
    }
  }
  return slots;
}

std::optional<NodeId> RoutingTable::Get(int row, int column) const {
  uint32_t idx = GetIndex(row, column);
  if (idx == kInvalidNodeIndex) {
    return std::nullopt;
  }
  return dir_->resolve(dir_->ctx, idx);
}

uint32_t* RoutingTable::EntryFor(uint32_t index, bool allocate) {
  if (index == owner_index_) {
    return nullptr;
  }
  const NodeId& id = dir_->resolve(dir_->ctx, index);
  int row = owner_.SharedPrefixLength(id, b_);  // < rows_: id is not the owner
  uint32_t* slots = allocate ? EnsureRow(row) : row_slots_[row];
  return slots == nullptr ? nullptr : &slots[id.Digit(row, b_)];
}

bool RoutingTable::ConsiderIndex(uint32_t index) {
  uint32_t* entry = EntryFor(index, /*allocate=*/true);
  if (entry == nullptr || *entry == index) {
    return false;
  }
  if (*entry == kInvalidNodeIndex) {
    *entry = index;
    ++populated_;
    return true;
  }
  if (dir_->distance != nullptr && dir_->distance(dir_->ctx, owner_index_, index) <
                                       dir_->distance(dir_->ctx, owner_index_, *entry)) {
    *entry = index;
    return true;
  }
  return false;
}

bool RoutingTable::RemoveIndex(uint32_t index) {
  uint32_t* entry = EntryFor(index, /*allocate=*/false);
  if (entry == nullptr || *entry != index) {
    return false;
  }
  *entry = kInvalidNodeIndex;
  --populated_;
  return true;
}

std::vector<NodeId> RoutingTable::Entries() const {
  std::vector<NodeId> out;
  out.reserve(populated_);
  ForEachIndex([&](uint32_t index) { out.push_back(dir_->resolve(dir_->ctx, index)); });
  return out;
}

std::vector<NodeId> RoutingTable::Row(int row) const {
  std::vector<NodeId> out;
  if (row < 0 || row >= rows_) {
    return out;
  }
  const uint32_t* slots = row_slots_[row];
  if (slots == nullptr) {
    return out;
  }
  for (int c = 0; c < columns_; ++c) {
    if (slots[c] != kInvalidNodeIndex) {
      out.push_back(dir_->resolve(dir_->ctx, slots[c]));
    }
  }
  return out;
}

}  // namespace past
