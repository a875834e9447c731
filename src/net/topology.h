// Emulated network topology and proximity metric.
//
// The paper runs all 2250 nodes in one process over a network emulation layer
// and measures fetch distance in Pastry routing hops; Pastry's locality
// heuristics need a scalar proximity metric between any two nodes (IP hops,
// geographic distance, ...). We model endpoints as points on a 2-D unit
// torus: distance is Euclidean with wrap-around, which gives a well-behaved
// metric with no edge effects.
//
// Topology itself is only the spatial index a joining Pastry node uses to
// find its proximally nearest seed. Each overlay stores its nodes'
// coordinates itself (PastryNetwork by dense node index, ChordNode per
// node); the grid here holds a copy of each placed endpoint's coordinate
// for the cell scan, and callers name the location again on Remove. A
// uniform grid over the torus indexes endpoints by cell so NearestTo is an
// expanding-ring search instead of a full scan — the scan made network
// construction O(n^2) (one NearestTo per join) and dominated 100k-node
// builds. Ties in NearestTo break toward the smaller NodeId, which makes the
// result independent of insertion order.
#ifndef SRC_NET_TOPOLOGY_H_
#define SRC_NET_TOPOLOGY_H_

#include <cstddef>
#include <vector>

#include "src/common/node_id.h"

namespace past {

struct Coordinate {
  double x = 0.0;
  double y = 0.0;
};

// Euclidean distance on the unit torus.
double TorusDistance(const Coordinate& a, const Coordinate& b);

// `c` with each axis wrapped into [0, 1).
Coordinate WrapToTorus(const Coordinate& c);

class Topology {
 public:
  Topology();

  // Indexes `id` at `location` wrapped into [0, 1), and returns the wrapped
  // coordinate. `id` must not be placed already.
  Coordinate Place(const NodeId& id, const Coordinate& location);

  // Unindexes `id`, which Place put at `location` (its return value).
  void Remove(const NodeId& id, const Coordinate& location);

  // The placed endpoint closest to `point` (grid expanding-ring search;
  // ties by smaller NodeId). Default NodeId if nothing is placed.
  NodeId NearestTo(const Coordinate& point) const;

  size_t size() const { return size_; }

 private:
  // 64x64 cells => ~24 endpoints per cell at 100k nodes; NearestTo usually
  // terminates after inspecting the first ring or two.
  static constexpr int kGridDim = 64;

  struct GridEntry {
    NodeId id;
    Coordinate location;
  };

  static int CellCoord(double v);
  std::vector<GridEntry>& CellOf(const Coordinate& c) {
    return cells_[static_cast<size_t>(CellCoord(c.x) * kGridDim + CellCoord(c.y))];
  }
  // Scans one cell, updating the running best under the (distance, id) order.
  void ScanCell(int cx, int cy, const Coordinate& point, NodeId& best, double& best_distance,
                bool& found) const;

  std::vector<std::vector<GridEntry>> cells_;
  size_t size_ = 0;
};

}  // namespace past

#endif  // SRC_NET_TOPOLOGY_H_
