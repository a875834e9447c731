#include "src/chord/chord_node.h"

#include <utility>

namespace past {

ChordNode::ChordNode(const NodeId& id, const Coordinate& location, int successor_list_length)
    : id_(id),
      location_(location),
      successor_list_length_(static_cast<size_t>(successor_list_length)) {}

void ChordNode::SetSuccessors(std::vector<NodeId> successors) {
  successors_ = std::move(successors);
  if (successors_.size() > successor_list_length_) {
    successors_.resize(successor_list_length_);
  }
}

NodeId ChordNode::FingerStart(int i) const {
  uint128 step = static_cast<uint128>(1) << i;
  return NodeId(id_.value() + step);  // mod 2^128 wraps naturally
}

bool ChordNode::InInterval(const NodeId& key, const NodeId& from, const NodeId& to) {
  // Half-open ring interval (from, to]: measured clockwise from `from`.
  if (from == to) {
    return true;  // full circle
  }
  uint128 span = from.ClockwiseDistance(to);
  uint128 offset = from.ClockwiseDistance(key);
  return offset > 0 && offset <= span;
}

std::optional<NodeId> ChordNode::ClosestPreceding(const NodeId& key) const {
  // Scan fingers from farthest to nearest for a node in (this, key).
  std::optional<NodeId> best;
  auto consider = [&](const NodeId& candidate) {
    if (candidate == id_) {
      return;
    }
    // Strictly between us and the key: (id_, key) exclusive of key itself.
    if (InInterval(candidate, id_, key) && candidate != key) {
      if (!best || InInterval(candidate, *best, key)) {
        best = candidate;
      }
    }
  };
  for (int i = kFingerBits - 1; i >= 0; --i) {
    if (fingers_[static_cast<size_t>(i)]) {
      consider(*fingers_[static_cast<size_t>(i)]);
    }
  }
  for (const NodeId& s : successors_) {
    consider(s);
  }
  return best;
}

}  // namespace past
