#include "src/common/rng.h"

#include <cmath>

namespace past {
namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) {
    word = SplitMix64(&s);
  }
}

uint64_t Rng::NextU64() {
  uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  if (bound <= 1) {
    return 0;
  }
  // Rejection sampling: accept values below the largest multiple of bound.
  uint64_t limit = ~0ULL - (~0ULL % bound);
  uint64_t v;
  do {
    v = NextU64();
  } while (v >= limit);
  return v % bound;
}

double Rng::NextDouble() {
  // 53 uniform mantissa bits.
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextGaussian() {
  if (have_cached_gaussian_) {
    have_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u, v, s;
  do {
    u = 2.0 * NextDouble() - 1.0;
    v = 2.0 * NextDouble() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  have_cached_gaussian_ = true;
  return u * factor;
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

}  // namespace past
