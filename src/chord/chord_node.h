// A Chord node (Stoica et al., SIGCOMM'01) — the alternative routing
// substrate the PAST paper discusses in sections 2.1 and 6: "it should be
// possible to layer PAST on top of ... Chord", with the caveat that Chord
// "makes no explicit effort to achieve good network locality". This
// implementation exists to quantify that comparison (bench_overlay_chord).
//
// State per node: its proximity coordinate, a predecessor, a successor list
// of length r, and a finger table where finger[i] is the first node whose id
// follows this node's id + 2^i on the 2^128 ring.
#ifndef SRC_CHORD_CHORD_NODE_H_
#define SRC_CHORD_CHORD_NODE_H_

#include <array>
#include <optional>
#include <vector>

#include "src/common/node_id.h"
#include "src/net/coordinate.h"

namespace past {

class ChordNode {
 public:
  static constexpr int kFingerBits = 128;

  ChordNode(const NodeId& id, const Coordinate& location, int successor_list_length);

  const NodeId& id() const { return id_; }
  // Where the node sits on the emulated torus (its proximity coordinate).
  const Coordinate& location() const { return location_; }

  // --- successor structure ---

  const std::vector<NodeId>& successors() const { return successors_; }
  std::optional<NodeId> successor() const {
    return successors_.empty() ? std::nullopt : std::make_optional(successors_.front());
  }
  void SetSuccessors(std::vector<NodeId> successors);

  const std::optional<NodeId>& predecessor() const { return predecessor_; }
  void SetPredecessor(const std::optional<NodeId>& p) { predecessor_ = p; }

  // --- finger table ---

  std::optional<NodeId> finger(int i) const { return fingers_[static_cast<size_t>(i)]; }
  void SetFinger(int i, const std::optional<NodeId>& node) {
    fingers_[static_cast<size_t>(i)] = node;
  }
  // The start of finger interval i: id + 2^i (mod 2^128).
  NodeId FingerStart(int i) const;

  // The closest preceding node for `key` from the finger table and successor
  // list — the standard Chord forwarding rule. Returns nullopt when no known
  // node lies strictly between this node and the key.
  std::optional<NodeId> ClosestPreceding(const NodeId& key) const;

  // True iff `key` lies in the half-open ring interval (this, successor].
  static bool InInterval(const NodeId& key, const NodeId& from, const NodeId& to);

 private:
  NodeId id_;
  Coordinate location_;
  size_t successor_list_length_;
  std::vector<NodeId> successors_;
  std::optional<NodeId> predecessor_;
  std::array<std::optional<NodeId>, kFingerBits> fingers_;
};

}  // namespace past

#endif  // SRC_CHORD_CHORD_NODE_H_
