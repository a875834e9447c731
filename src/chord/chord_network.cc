#include "src/chord/chord_network.h"

#include <algorithm>

#include "src/common/logging.h"

namespace past {

ChordNetwork::ChordNetwork(int successor_list_length, uint64_t seed)
    : successor_list_length_(successor_list_length), rng_(seed) {
  // The draw that once seeded a placement RNG; kept so every seed's node-id
  // stream stays unchanged.
  rng_.NextU64();
}

NodeId ChordNetwork::CreateNode() {
  NodeId id;
  do {
    id = NodeId(rng_.NextU64(), rng_.NextU64());
  } while (nodes_.count(id) != 0);
  Join(id, Coordinate{rng_.NextDouble(), rng_.NextDouble()});
  return id;
}

bool ChordNetwork::Join(const NodeId& id, const Coordinate& location) {
  if (nodes_.count(id) != 0) {
    return false;
  }
  auto node = std::make_unique<ChordNode>(id, WrapToTorus(location), successor_list_length_);
  ChordNode* x = node.get();
  nodes_[id] = std::move(node);

  if (!ring_.empty()) {
    // Find our successor by routing from an arbitrary live node.
    NodeId seed = ring_.begin()->second;
    ChordRouteResult route = FindSuccessor(seed, id);
    ChordNode* s = this->node(route.owner());

    std::vector<NodeId> successors;
    successors.push_back(s->id());
    for (const NodeId& next : s->successors()) {
      if (next != id) {
        successors.push_back(next);
      }
    }
    x->SetSuccessors(std::move(successors));
    x->SetPredecessor(s->predecessor());
    // Notify semantics: we claim to be s's predecessor only if we actually
    // lie between its current predecessor and s.
    if (!s->predecessor() ||
        (ChordNode::InInterval(id, *s->predecessor(), s->id()) && id != s->id())) {
      s->SetPredecessor(id);
    }
    if (!x->predecessor()) {
      // Two-node ring (or successor had lost its predecessor): the successor
      // is also our predecessor, and we are its successor.
      x->SetPredecessor(s->id());
      if (!s->successor()) {
        s->SetSuccessors({id});
      }
    }

    // Our predecessor's successor structure now starts with us.
    if (x->predecessor()) {
      ChordNode* p = this->node(*x->predecessor());
      if (p != nullptr) {
        std::vector<NodeId> pred_successors;
        pred_successors.push_back(id);
        pred_successors.push_back(s->id());
        for (const NodeId& next : s->successors()) {
          pred_successors.push_back(next);
        }
        p->SetSuccessors(std::move(pred_successors));
      }
    }
    BuildFingers(*x);
  } else {
    x->SetSuccessors({});
    x->SetPredecessor(std::nullopt);
  }

  ring_[id.value()] = id;
  return true;
}

void ChordNetwork::BuildInitialNetwork(size_t n) {
  for (size_t i = 0; i < n; ++i) {
    CreateNode();
  }
  // Maintenance passes so early joiners learn about later arrivals (the
  // steady-state effect of Chord's periodic stabilize + fix_fingers).
  Stabilize(3);
  FixAllFingers();
}

void ChordNetwork::BuildFingers(ChordNode& node) {
  std::optional<NodeId> last;
  for (int i = 0; i < ChordNode::kFingerBits; ++i) {
    NodeId start = node.FingerStart(i);
    // Reuse the previous finger when it still succeeds this start —
    // consecutive fingers usually coincide (standard optimization): `last`
    // owns `start` iff start lies within (node, last].
    if (last && ChordNode::InInterval(start, node.id(), *last)) {
      node.SetFinger(i, last);
      continue;
    }
    ChordRouteResult route = FindSuccessor(node.id(), start);
    if (route.succeeded) {
      node.SetFinger(i, route.owner());
      last = route.owner();
    }
  }
}

void ChordNetwork::FixAllFingers() {
  for (const auto& [value, id] : ring_) {
    (void)value;
    BuildFingers(*node(id));
  }
}

void ChordNetwork::Stabilize(int rounds) {
  for (int round = 0; round < rounds; ++round) {
    for (const auto& [value, id] : ring_) {
      (void)value;
      ChordNode* n = node(id);
      auto successor = n->successor();
      if (!successor) {
        continue;
      }
      ChordNode* s = node(*successor);
      stats_.RecordRpc();
      // stabilize: adopt the successor's predecessor if it lies between us.
      if (s->predecessor() && *s->predecessor() != id &&
          ChordNode::InInterval(*s->predecessor(), id, s->id()) &&
          *s->predecessor() != s->id()) {
        s = node(*s->predecessor());
      }
      // Refresh our list from the (possibly new) successor's list.
      std::vector<NodeId> fresh;
      fresh.push_back(s->id());
      for (const NodeId& next : s->successors()) {
        if (next != id && std::find(fresh.begin(), fresh.end(), next) == fresh.end()) {
          fresh.push_back(next);
        }
      }
      n->SetSuccessors(std::move(fresh));
      // notify: tell the successor we may be its predecessor.
      if (!s->predecessor() || ChordNode::InInterval(id, *s->predecessor(), s->id())) {
        if (id != s->id()) {
          s->SetPredecessor(id);
        }
      }
    }
  }
}

ChordRouteResult ChordNetwork::FindSuccessor(const NodeId& from, const NodeId& key) {
  ChordRouteResult result;
  if (node(from) == nullptr) {
    return result;
  }
  NodeId current = from;
  result.path.push_back(current);
  const int max_hops = 4 * 128;
  for (int hop = 0; hop < max_hops; ++hop) {
    ChordNode* n = node(current);
    auto successor = n->successor();
    if (!successor) {
      // Single-node ring: we own everything.
      result.succeeded = ring_.size() == 1;
      return result;
    }
    if (ChordNode::InInterval(key, current, *successor)) {
      // The key's owner is our successor.
      double d = Distance(current, *successor);
      stats_.RecordHop(d);
      result.distance += d;
      result.path.push_back(*successor);
      result.succeeded = true;
      return result;
    }
    std::optional<NodeId> next = n->ClosestPreceding(key);
    if (!next || *next == current) {
      next = successor;  // fall back to linear traversal
    }
    double d = Distance(current, *next);
    stats_.RecordHop(d);
    stats_.RecordMessage(64);
    result.distance += d;
    current = *next;
    result.path.push_back(current);
  }
  PAST_LOG(kWarning) << "chord lookup exceeded hop bound for " << key.ToHex();
  return result;
}

double ChordNetwork::Distance(const NodeId& a, const NodeId& b) const {
  return TorusDistance(node(a)->location(), node(b)->location());
}

ChordNode* ChordNetwork::node(const NodeId& id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

const ChordNode* ChordNetwork::node(const NodeId& id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<NodeId> ChordNetwork::live_nodes() const {
  std::vector<NodeId> out;
  out.reserve(ring_.size());
  for (const auto& [value, id] : ring_) {
    (void)value;
    out.push_back(id);
  }
  return out;
}

NodeId ChordNetwork::OwnerOf(const NodeId& key) const {
  if (ring_.empty()) {
    return NodeId();
  }
  auto it = ring_.lower_bound(key.value());
  if (it == ring_.end()) {
    it = ring_.begin();  // wrap
  }
  return it->second;
}

size_t ChordNetwork::CountSuccessorViolations() const {
  size_t violations = 0;
  for (const auto& [value, id] : ring_) {
    const ChordNode* n = node(id);
    auto it = ring_.find(value);
    ++it;
    if (it == ring_.end()) {
      it = ring_.begin();
    }
    NodeId expected = it->second;
    if (expected == id) {
      continue;  // single node
    }
    auto successor = n->successor();
    if (!successor || *successor != expected) {
      ++violations;
    }
  }
  return violations;
}

}  // namespace past
