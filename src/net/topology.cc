#include "src/net/topology.h"

#include <cmath>
#include <limits>

namespace past {

double TorusDistance(const Coordinate& a, const Coordinate& b) {
  double dx = std::fabs(a.x - b.x);
  double dy = std::fabs(a.y - b.y);
  dx = std::min(dx, 1.0 - dx);
  dy = std::min(dy, 1.0 - dy);
  return std::sqrt(dx * dx + dy * dy);
}

Coordinate WrapToTorus(const Coordinate& c) {
  auto wrap = [](double v) {
    v = std::fmod(v, 1.0);
    if (v < 0.0) {
      v += 1.0;
    }
    return v;
  };
  return Coordinate{wrap(c.x), wrap(c.y)};
}

Topology::Topology() { cells_.resize(static_cast<size_t>(kGridDim) * kGridDim); }

int Topology::CellCoord(double v) {
  int c = static_cast<int>(v * kGridDim);
  if (c < 0) {
    c = 0;
  }
  if (c >= kGridDim) {
    c = kGridDim - 1;  // v == 1.0 after wrap rounding
  }
  return c;
}

Coordinate Topology::Place(const NodeId& id, const Coordinate& location) {
  Coordinate c = WrapToTorus(location);
  CellOf(c).push_back(GridEntry{id, c});
  ++size_;
  return c;
}

void Topology::Remove(const NodeId& id, const Coordinate& location) {
  std::vector<GridEntry>& cell = CellOf(location);
  for (size_t i = 0; i < cell.size(); ++i) {
    if (cell[i].id == id) {
      cell[i] = cell.back();
      cell.pop_back();
      --size_;
      return;
    }
  }
}

void Topology::ScanCell(int cx, int cy, const Coordinate& point, NodeId& best,
                        double& best_distance, bool& found) const {
  const std::vector<GridEntry>& cell = cells_[static_cast<size_t>(cx * kGridDim + cy)];
  for (const GridEntry& e : cell) {
    double d = TorusDistance(point, e.location);
    if (d < best_distance || (found && d == best_distance && e.id < best)) {
      best_distance = d;
      best = e.id;
      found = true;
    }
  }
}

NodeId Topology::NearestTo(const Coordinate& point) const {
  NodeId best;
  if (size_ == 0) {
    return best;
  }
  double best_distance = std::numeric_limits<double>::infinity();
  bool found = false;
  const int cx = CellCoord(point.x);
  const int cy = CellCoord(point.y);
  const double cell_size = 1.0 / kGridDim;
  auto wrap = [](int c) { return ((c % kGridDim) + kGridDim) % kGridDim; };

  for (int r = 0; r <= kGridDim / 2 + 1; ++r) {
    // Any endpoint in a cell at Chebyshev cell-distance r is at least
    // (r - 1) * cell_size away, so once the running best beats that bound no
    // farther ring can improve it.
    if (found && best_distance < static_cast<double>(r - 1) * cell_size) {
      break;
    }
    if (2 * r + 1 >= kGridDim) {
      // Ring would wrap onto itself; finish with a full sweep.
      for (int x = 0; x < kGridDim; ++x) {
        for (int y = 0; y < kGridDim; ++y) {
          ScanCell(x, y, point, best, best_distance, found);
        }
      }
      break;
    }
    if (r == 0) {
      ScanCell(cx, cy, point, best, best_distance, found);
      continue;
    }
    for (int dx = -r; dx <= r; ++dx) {
      ScanCell(wrap(cx + dx), wrap(cy - r), point, best, best_distance, found);
      ScanCell(wrap(cx + dx), wrap(cy + r), point, best, best_distance, found);
    }
    for (int dy = -r + 1; dy <= r - 1; ++dy) {
      ScanCell(wrap(cx - r), wrap(cy + dy), point, best, best_distance, found);
      ScanCell(wrap(cx + r), wrap(cy + dy), point, best, best_distance, found);
    }
  }
  return best;
}

}  // namespace past
