#include "src/pastry/leaf_set.h"

#include <algorithm>

namespace past {

LeafSet::LeafSet(const NodeId& owner, int capacity_per_side, const NodeDirectory* dir)
    : owner_(owner), dir_(dir), capacity_per_side_(capacity_per_side) {
  if (capacity_per_side_ > kInlinePerSide) {
    spill_ = std::make_unique<Spill>();
    for (int s = 0; s < 2; ++s) {
      spill_->ids[s].resize(static_cast<size_t>(capacity_per_side_));
      spill_->idx[s].resize(static_cast<size_t>(capacity_per_side_), kInvalidNodeIndex);
    }
  }
}

bool LeafSet::InsertSide(int s, const NodeId& id, uint32_t& index) {
  const bool clockwise = (s == 0);
  NodeId* ids = side_ids(s);
  uint32_t* idx = side_idx(s);
  int n = count_[s];
  auto directed = [&](const NodeId& x) {
    return clockwise ? owner_.ClockwiseDistance(x) : x.ClockwiseDistance(owner_);
  };
  uint128 d = directed(id);
  // Directed distance is injective for a fixed owner, so the sort order is
  // strict and lower_bound pins a unique position.
  int lo = 0;
  int hi = n;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (directed(ids[mid]) < d) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  int pos = lo;
  if (pos < n && ids[pos] == id) {
    return false;
  }
  if (n == capacity_per_side_) {
    if (d >= directed(ids[n - 1])) {
      return false;  // farther than everything we keep
    }
    --n;  // evict the farthest member; pos is unaffected (pos <= n - 1)
  }
  for (int i = n; i > pos; --i) {
    ids[i] = ids[i - 1];
    idx[i] = idx[i - 1];
  }
  if (index == kInvalidNodeIndex && dir_ != nullptr) {
    index = dir_->intern(dir_->ctx, id);
  }
  ids[pos] = id;
  idx[pos] = index;
  count_[s] = n + 1;
  return true;
}

bool LeafSet::Insert(const NodeId& id, uint32_t index) {
  if (id == owner_) {
    return false;
  }
  // A node is a candidate for both sides; with >= l+1 nodes in the system the
  // capacity limits naturally make the sides disjoint.
  bool inserted_larger = InsertSide(0, id, index);
  bool inserted_smaller = InsertSide(1, id, index);
  return inserted_larger || inserted_smaller;
}

bool LeafSet::Remove(const NodeId& id) {
  bool any = false;
  for (int s = 0; s < 2; ++s) {
    NodeId* ids = side_ids(s);
    uint32_t* idx = side_idx(s);
    int n = count_[s];
    for (int i = 0; i < n; ++i) {
      if (ids[i] == id) {
        for (int j = i; j + 1 < n; ++j) {
          ids[j] = ids[j + 1];
          idx[j] = idx[j + 1];
        }
        count_[s] = n - 1;
        any = true;
        break;
      }
    }
  }
  return any;
}

bool LeafSet::Contains(const NodeId& id) const {
  for (int s = 0; s < 2; ++s) {
    const NodeId* ids = side_ids(s);
    for (int i = 0; i < count_[s]; ++i) {
      if (ids[i] == id) {
        return true;
      }
    }
  }
  return false;
}

bool LeafSet::InLarger(const NodeId& id) const {
  const int n = count_[0];
  const NodeId* ids = side_ids(0);
  if (n == 0 || owner_.ClockwiseDistance(id) > owner_.ClockwiseDistance(ids[n - 1])) {
    return false;
  }
  return std::find(ids, ids + n, id) != ids + n;
}

std::vector<NodeId> LeafSet::All() const {
  std::vector<NodeId> all;
  all.reserve(static_cast<size_t>(count_[0] + count_[1]));
  all.assign(larger().begin(), larger().end());
  for (const NodeId& id : smaller()) {
    if (!InLarger(id)) {
      all.push_back(id);
    }
  }
  return all;
}

bool LeafSet::Covers(const NodeId& key) const {
  if (key == owner_) {
    return true;
  }
  // The covered arc runs counterclockwise from the farthest smaller member to
  // the farthest larger member (through the owner). With an empty side, the
  // arc boundary is the owner itself.
  uint128 cw_reach = count_[0] == 0 ? 0 : owner_.ClockwiseDistance(side_ids(0)[count_[0] - 1]);
  uint128 ccw_reach = count_[1] == 0 ? 0 : side_ids(1)[count_[1] - 1].ClockwiseDistance(owner_);
  uint128 cw_key = owner_.ClockwiseDistance(key);
  uint128 ccw_key = key.ClockwiseDistance(owner_);
  return cw_key <= cw_reach || ccw_key <= ccw_reach;
}

NodeId LeafSet::ClosestTo(const NodeId& key) const {
  NodeId best = owner_;
  for (int s = 0; s < 2; ++s) {
    const NodeId* ids = side_ids(s);
    for (int i = 0; i < count_[s]; ++i) {
      if (ids[i].CloserTo(key, best)) {
        best = ids[i];
      }
    }
  }
  return best;
}

size_t LeafSet::size() const { return All().size(); }

bool LeafSet::full() const {
  return count_[0] == capacity_per_side_ && count_[1] == capacity_per_side_;
}

}  // namespace past
