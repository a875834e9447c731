#include "src/pastry/neighborhood_set.h"

namespace past {

NeighborhoodSet::NeighborhoodSet(const NodeId& owner, int capacity, const NodeDirectory* dir)
    : dir_(dir), owner_index_(dir->intern(dir->ctx, owner)), capacity_(capacity) {
  if (capacity_ > kInlineCapacity) {
    spill_ = std::make_unique<std::vector<uint32_t>>(static_cast<size_t>(capacity_),
                                                     kInvalidNodeIndex);
  }
}

bool NeighborhoodSet::ConsiderIndex(uint32_t index) {
  if (index == owner_index_ || ContainsIndex(index)) {
    return false;
  }
  // Without a proximity metric every node is equidistant (insertion order).
  double d = DistanceTo(index);
  uint32_t* a = data();
  int lo = 0;
  int hi = count_;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (DistanceTo(a[mid]) < d) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  int pos = lo;
  if (count_ >= capacity_ && pos == count_) {
    return false;
  }
  if (count_ == capacity_) {
    // Insert at pos and evict the farthest member in one shift.
    for (int i = count_ - 1; i > pos; --i) {
      a[i] = a[i - 1];
    }
    a[pos] = index;
  } else {
    for (int i = count_; i > pos; --i) {
      a[i] = a[i - 1];
    }
    a[pos] = index;
    ++count_;
  }
  return true;
}

bool NeighborhoodSet::RemoveIndex(uint32_t index) {
  uint32_t* a = data();
  for (int i = 0; i < count_; ++i) {
    if (a[i] == index) {
      for (int j = i; j + 1 < count_; ++j) {
        a[j] = a[j + 1];
      }
      --count_;
      return true;
    }
  }
  return false;
}

bool NeighborhoodSet::ContainsIndex(uint32_t index) const {
  const uint32_t* a = data();
  for (int i = 0; i < count_; ++i) {
    if (a[i] == index) {
      return true;
    }
  }
  return false;
}

std::vector<NodeId> NeighborhoodSet::members() const {
  std::vector<NodeId> out;
  out.reserve(static_cast<size_t>(count_));
  for (int i = 0; i < count_; ++i) {
    out.push_back(dir_->resolve(dir_->ctx, data()[i]));
  }
  return out;
}

}  // namespace past
