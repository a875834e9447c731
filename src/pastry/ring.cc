#include "src/pastry/ring.h"

#include <algorithm>

namespace past {

void SortedRing::FlushBulk() const {
  if (pending_.empty()) {
    return;
  }
  std::sort(pending_.begin(), pending_.end(),
            [](const NodeId& a, const NodeId& b) { return a.value() < b.value(); });
  const size_t mid = ids_.size();
  ids_.insert(ids_.end(), pending_.begin(), pending_.end());
  std::inplace_merge(ids_.begin(), ids_.begin() + static_cast<ptrdiff_t>(mid), ids_.end(),
                     [](const NodeId& a, const NodeId& b) { return a.value() < b.value(); });
  pending_.clear();
}

size_t SortedRing::LowerBound(uint128 v) const {
  FlushBulk();
  // Branchless: each iteration halves the window with a conditional base
  // advance the compiler lowers to cmov, so the search never mispredicts on
  // the (random) key distribution of routing traffic.
  const NodeId* base = ids_.data();
  size_t n = ids_.size();
  while (n > 1) {
    const size_t half = n / 2;
    base += (base[half - 1].value() < v) ? half : 0;
    n -= half;
  }
  const size_t pos = static_cast<size_t>(base - ids_.data());
  return (n == 1 && base->value() < v) ? pos + 1 : pos;
}

bool SortedRing::Insert(const NodeId& id) {
  if (bulk_) {
    pending_.push_back(id);
    return true;
  }
  size_t pos = LowerBound(id.value());
  if (pos < ids_.size() && ids_[pos] == id) {
    return false;
  }
  ids_.insert(ids_.begin() + static_cast<ptrdiff_t>(pos), id);
  return true;
}

bool SortedRing::Erase(const NodeId& id) {
  size_t pos = LowerBound(id.value());
  if (pos >= ids_.size() || !(ids_[pos] == id)) {
    return false;
  }
  ids_.erase(ids_.begin() + static_cast<ptrdiff_t>(pos));
  return true;
}

bool SortedRing::Contains(const NodeId& id) const { return IndexOf(id) != kNotFound; }

size_t SortedRing::IndexOf(const NodeId& id) const {
  size_t pos = LowerBound(id.value());
  return (pos < ids_.size() && ids_[pos] == id) ? pos : kNotFound;
}

std::vector<NodeId> SortedRing::KClosest(const NodeId& key, size_t k) const {
  FlushBulk();
  std::vector<NodeId> out;
  if (ids_.empty()) {
    return out;
  }
  const size_t n = ids_.size();
  k = std::min(k, n);
  // Two cursors sweep outward from the key position, wrapping at the array
  // ends; whichever side is ring-closer is taken next. Because k <= n the
  // arcs stay disjoint until the last take, so no membership scan is needed.
  const size_t lb = LowerBound(key.value());
  size_t fwd = lb == n ? 0 : lb;
  size_t bwd = (lb == 0 ? n : lb) - 1;
  out.reserve(k);
  while (out.size() < k) {
    const NodeId& f = ids_[fwd];
    const NodeId& b = ids_[bwd];
    if (f.CloserTo(key, b)) {
      out.push_back(f);
      fwd = (fwd + 1 == n) ? 0 : fwd + 1;
    } else {
      out.push_back(b);
      bwd = (bwd == 0 ? n : bwd) - 1;
    }
  }
  return out;
}

NodeId SortedRing::Closest(const NodeId& key) const {
  const size_t lb = LowerBound(key.value());  // flushes pending bulk inserts
  const size_t n = ids_.size();
  if (n == 0) {
    return NodeId();
  }
  // The same two cursors KClosest starts from; its first take is the answer.
  const NodeId& f = ids_[lb == n ? 0 : lb];
  const NodeId& b = ids_[(lb == 0 ? n : lb) - 1];
  return f.CloserTo(key, b) ? f : b;
}

}  // namespace past
