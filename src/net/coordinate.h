// Emulated network proximity metric.
//
// The paper runs all 2250 nodes in one process over a network emulation layer
// and measures fetch distance in Pastry routing hops; Pastry's locality
// heuristics need a scalar proximity metric between any two nodes (IP hops,
// geographic distance, ...). We model endpoints as points on a 2-D unit
// torus: distance is Euclidean with wrap-around, which gives a well-behaved
// metric with no edge effects. Each overlay stores its nodes' coordinates
// itself (PastryNetwork by dense node index, ChordNode per node).
#ifndef SRC_NET_COORDINATE_H_
#define SRC_NET_COORDINATE_H_

namespace past {

struct Coordinate {
  double x = 0.0;
  double y = 0.0;
};

// Euclidean distance on the unit torus.
double TorusDistance(const Coordinate& a, const Coordinate& b);

// `c` with each axis wrapped into [0, 1).
Coordinate WrapToTorus(const Coordinate& c);

}  // namespace past

#endif  // SRC_NET_COORDINATE_H_
