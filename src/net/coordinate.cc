#include "src/net/coordinate.h"

#include <algorithm>
#include <cmath>

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

}  // namespace past
