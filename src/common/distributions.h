// Statistical distributions used by the workload generators and the storage
// capacity model (paper section 5.1).
#ifndef SRC_COMMON_DISTRIBUTIONS_H_
#define SRC_COMMON_DISTRIBUTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace past {

// Normal distribution truncated to [lower, upper] by resampling. This is the
// model the paper uses for per-node storage capacities (Table 1).
class TruncatedNormal {
 public:
  TruncatedNormal(double mean, double stddev, double lower, double upper);

  double Sample(Rng& rng) const;

  double mean() const { return mean_; }
  double stddev() const { return stddev_; }
  double lower() const { return lower_; }
  double upper() const { return upper_; }

 private:
  double mean_;
  double stddev_;
  double lower_;
  double upper_;
};

// Zipf distribution over ranks {0, ..., n-1} with exponent alpha:
// P(rank i) proportional to 1/(i+1)^alpha. Web request popularity is
// Zipf-like with alpha slightly below 1 (Breslau et al., cited by the paper).
// Sampling returns the first rank whose CDF value is >= a uniform draw u,
// exactly as a binary search over the CDF would, in O(1) expected time: a
// guide table (Chen and Asau's indexed search) maps floor(u * n) to a rank
// at most a few steps from the answer.
class Zipf {
 public:
  Zipf(size_t n, double alpha);

  size_t Sample(Rng& rng) const { return RankAt(rng.NextDouble()); }
  // The rank Sample returns when the draw is u >= 0: the first i with
  // cdf()[i] >= u, or n - 1 when there is none.
  size_t RankAt(double u) const;

  size_t n() const { return cdf_.size(); }
  double alpha() const { return alpha_; }
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  double alpha_;
  std::vector<double> cdf_;
  // guide_[j] is the first rank i with cdf_[i] >= j / n. Ranks fit in 32
  // bits: a CDF over 2^32 ranks alone would take 32 GB.
  std::vector<uint32_t> guide_;
};

// Lognormal body with an optional Pareto upper tail. Used to synthesize file
// size distributions matched to the published trace statistics: the lognormal
// reproduces a given median and mean, while the Pareto tail supplies the rare
// very large files (the NLANR trace tops out at 138 MB, far beyond what a
// lognormal calibrated to its mean/median would produce).
class FileSizeDistribution {
 public:
  // Calibrates the lognormal so that its median and mean match. The top
  // `tail_fraction` of samples are redrawn from a Pareto distribution with
  // shape `tail_alpha` starting at the lognormal's (1 - tail_fraction)
  // quantile, capped at `max_size`.
  FileSizeDistribution(uint64_t median, uint64_t mean, double tail_fraction, double tail_alpha,
                       uint64_t max_size);

  uint64_t Sample(Rng& rng) const;

  double mu() const { return mu_; }
  double sigma() const { return sigma_; }

 private:
  double mu_;     // lognormal location (log of median)
  double sigma_;  // lognormal shape
  double tail_fraction_;
  double tail_alpha_;
  double tail_start_;
  uint64_t max_size_;
};

}  // namespace past

#endif  // SRC_COMMON_DISTRIBUTIONS_H_
