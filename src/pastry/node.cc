#include "src/pastry/node.h"

#include <algorithm>

namespace past {

PastryNode::PastryNode(const NodeId& id, const PastryConfig& config, const NodeDirectory* dir,
                       Arena* arena)
    : id_(id),
      dir_(dir),
      config_(config),
      routing_table_(id, config.b, dir, arena),
      leaf_set_(id, config.leaf_set_size / 2, dir),
      neighborhood_(id, config.neighborhood_size, dir) {}

void PastryNode::LearnIndex(uint32_t index) {
  const NodeId other = dir_->resolve(dir_->ctx, index);
  if (other == id_) {
    return;
  }
  leaf_set_.Insert(other, index);
  routing_table_.ConsiderIndex(index);
  neighborhood_.ConsiderIndex(index);
}

void PastryNode::Forget(const NodeId& other) {
  leaf_set_.Remove(other);
  uint32_t index = dir_->find(dir_->ctx, other);
  if (index != kInvalidNodeIndex) {
    routing_table_.RemoveIndex(index);
    neighborhood_.RemoveIndex(index);
  }
}

NodeId PastryNode::ClosestAliveLeaf(const NodeId& key, std::vector<NodeId>* deferred_dead) {
  // Scans the two sides in place instead of materializing All(): this runs
  // on every final routing hop. Overlapping sides (small networks) just scan
  // a member twice, which cannot change the arg-min; `dead` stays
  // unallocated unless a failed member is actually seen. Aliveness is a
  // dense array load through the member's interned index.
  NodeId best = id_;
  std::vector<NodeId> dead;
  auto scan = [&](std::span<const NodeId> ids, std::span<const uint32_t> idx) {
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!AliveAt(idx[i])) {
        (deferred_dead != nullptr ? *deferred_dead : dead).push_back(ids[i]);
        continue;
      }
      if (ids[i].CloserTo(key, best)) {
        best = ids[i];
      }
    }
  };
  scan(leaf_set_.larger(), leaf_set_.larger_indices());
  scan(leaf_set_.smaller(), leaf_set_.smaller_indices());
  for (const NodeId& d : dead) {
    Forget(d);
  }
  return best;
}

std::vector<NodeId> PastryNode::ValidCandidates(const NodeId& key) {
  int my_prefix = id_.SharedPrefixLength(key, config_.b);
  std::vector<NodeId> candidates;
  auto consider = [&](const NodeId& c, uint32_t idx) {
    if (c == id_ || !AliveAt(idx)) {
      return;
    }
    if (c.SharedPrefixLength(key, config_.b) >= my_prefix && c.CloserTo(key, id_) &&
        std::find(candidates.begin(), candidates.end(), c) == candidates.end()) {
      candidates.push_back(c);
    }
  };
  // Leaf members in All() order (larger side first, then smaller-side
  // members not already seen — the duplicate filter above preserves the
  // historical first-appearance order).
  {
    std::span<const NodeId> ids = leaf_set_.larger();
    std::span<const uint32_t> idx = leaf_set_.larger_indices();
    for (size_t i = 0; i < ids.size(); ++i) {
      consider(ids[i], idx[i]);
    }
    ids = leaf_set_.smaller();
    idx = leaf_set_.smaller_indices();
    for (size_t i = 0; i < ids.size(); ++i) {
      consider(ids[i], idx[i]);
    }
  }
  routing_table_.ForEachIndex([&](uint32_t idx) { consider(dir_->resolve(dir_->ctx, idx), idx); });
  for (size_t i = 0; i < neighborhood_.size(); ++i) {
    uint32_t idx = neighborhood_.member_index(i);
    consider(dir_->resolve(dir_->ctx, idx), idx);
  }
  return candidates;
}

std::optional<NodeId> PastryNode::NextHop(const NodeId& key, Rng* rng,
                                          std::vector<NodeId>* deferred_dead) {
  // Randomized routing (paper section 2.3): occasionally pick any valid
  // choice to route around malicious or silently failed nodes on the path.
  if (rng != nullptr && config_.route_randomization > 0.0 &&
      rng->NextBool(config_.route_randomization)) {
    std::vector<NodeId> candidates = ValidCandidates(key);
    if (!candidates.empty()) {
      return candidates[rng->NextBelow(candidates.size())];
    }
    return std::nullopt;
  }

  // Case 1: key is within the leaf set's range; deliver to the numerically
  // closest member (possibly ourselves).
  if (leaf_set_.Covers(key)) {
    NodeId best = ClosestAliveLeaf(key, deferred_dead);
    if (best == id_) {
      return std::nullopt;
    }
    return best;
  }

  // Case 2: forward to a routing table entry with a longer shared prefix.
  int my_prefix = id_.SharedPrefixLength(key, config_.b);
  int next_digit = key.Digit(my_prefix, config_.b);
  uint32_t entry_idx = routing_table_.GetIndex(my_prefix, next_digit);
  if (entry_idx != kInvalidNodeIndex) {
    const NodeId& entry = dir_->resolve(dir_->ctx, entry_idx);
    if (AliveAt(entry_idx)) {
      return entry;
    }
    if (deferred_dead != nullptr) {
      deferred_dead->push_back(entry);
    } else {
      Forget(entry);
    }
  }

  // Case 3 (rare): no such entry; forward to any known node sharing at least
  // as long a prefix that is numerically closer to the key than we are.
  std::vector<NodeId> candidates = ValidCandidates(key);
  if (candidates.empty()) {
    return std::nullopt;  // we are (as far as we know) the closest node
  }
  NodeId best = candidates.front();
  for (const NodeId& c : candidates) {
    // Prefer a longer prefix match, then closer ring distance.
    int best_prefix = best.SharedPrefixLength(key, config_.b);
    int c_prefix = c.SharedPrefixLength(key, config_.b);
    if (c_prefix > best_prefix || (c_prefix == best_prefix && c.CloserTo(key, best))) {
      best = c;
    }
  }
  return best;
}

}  // namespace past
