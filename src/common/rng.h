// Deterministic pseudo-random number generation.
//
// Every source of randomness in the simulator flows from a seeded Rng so that
// experiments are exactly reproducible from their seed. The generator is
// xoshiro256** seeded via SplitMix64 (Blackman & Vigna), which is fast and
// has no observable statistical defects at the scales we use.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstdint>

namespace past {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t NextU64();

  // Uniform in [0, bound), bound > 0. Uses rejection sampling to avoid
  // modulo bias.
  uint64_t NextBelow(uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Standard normal deviate (Marsaglia polar method).
  double NextGaussian();

  // True with probability p.
  bool NextBool(double p);

 private:
  uint64_t state_[4];
  bool have_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace past

#endif  // SRC_COMMON_RNG_H_
