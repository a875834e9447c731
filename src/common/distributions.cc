#include "src/common/distributions.h"

#include <algorithm>
#include <cmath>

namespace past {

TruncatedNormal::TruncatedNormal(double mean, double stddev, double lower, double upper)
    : mean_(mean), stddev_(stddev), lower_(lower), upper_(upper) {}

double TruncatedNormal::Sample(Rng& rng) const {
  // Resampling is fine here: the paper's distributions keep at least ~2% of
  // the mass inside the bounds, so the expected number of draws is small.
  for (int attempt = 0; attempt < 10000; ++attempt) {
    double v = mean_ + stddev_ * rng.NextGaussian();
    if (v >= lower_ && v <= upper_) {
      return v;
    }
  }
  // Pathological parameters: fall back to uniform within bounds.
  return lower_ + (upper_ - lower_) * rng.NextDouble();
}

Zipf::Zipf(size_t n, double alpha) : alpha_(alpha), cdf_(n), guide_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf_[i] = sum;
  }
  for (double& v : cdf_) {
    v /= sum;
  }
  // cdf_.back() is sum / sum = 1 > j / n, so the sweep stays in range.
  size_t i = 0;
  for (size_t j = 0; j < n; ++j) {
    const double level = static_cast<double>(j) / static_cast<double>(n);
    while (cdf_[i] < level) {
      ++i;
    }
    guide_[j] = static_cast<uint32_t>(i);
  }
}

size_t Zipf::RankAt(double u) const {
  const size_t n = cdf_.size();
  // u * n may round up past the bucket u lies in, and j / n may round above
  // u, so walk back before walking forward: the two walks end at the first
  // i with cdf_[i] >= u from any start, which is std::lower_bound's answer.
  size_t i = guide_[std::min(static_cast<size_t>(u * static_cast<double>(n)), n - 1)];
  while (i > 0 && cdf_[i - 1] >= u) {
    --i;
  }
  while (i < n && cdf_[i] < u) {
    ++i;
  }
  return i == n ? n - 1 : i;
}

namespace {

// Standard normal quantile by bisection on erf (we only need one value).
double NormalQuantile(double p) {
  double lo = -10.0, hi = 10.0;
  for (int i = 0; i < 80; ++i) {
    double mid = 0.5 * (lo + hi);
    double cdf = 0.5 * (1.0 + std::erf(mid / std::sqrt(2.0)));
    if (cdf < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

// Mean of a Pareto(alpha, xm) truncated at M.
double TruncatedParetoMean(double alpha, double xm, double big_m) {
  if (big_m <= xm) {
    return xm;
  }
  double r = xm / big_m;
  double norm = 1.0 - std::pow(r, alpha);
  if (std::abs(alpha - 1.0) < 1e-9) {
    return xm * std::log(1.0 / r) / norm;
  }
  return (alpha / (alpha - 1.0)) * xm * (1.0 - std::pow(r, alpha - 1.0)) / norm;
}

}  // namespace

FileSizeDistribution::FileSizeDistribution(uint64_t median, uint64_t mean, double tail_fraction,
                                           double tail_alpha, uint64_t max_size)
    : tail_fraction_(tail_fraction), tail_alpha_(tail_alpha), max_size_(max_size) {
  // Lognormal body: median = exp(mu), body mean = exp(mu + sigma^2 / 2).
  // The Pareto tail (the rare very large files that dominate total bytes in
  // real web traces) contributes heavily to the overall mean, so we solve
  // for a body mean such that (1 - f) * body_mean + f * tail_mean hits the
  // target. tail_start depends on sigma, so iterate to a fixed point.
  mu_ = std::log(static_cast<double>(median));
  double target = static_cast<double>(mean);
  double med = static_cast<double>(median);
  double body_mean = target;
  double z = NormalQuantile(1.0 - tail_fraction_);
  tail_start_ = med;
  for (int iter = 0; iter < 30; ++iter) {
    sigma_ = std::sqrt(2.0 * std::log(std::max(body_mean / med, 1.000001)));
    if (tail_fraction_ <= 0.0) {
      break;
    }
    tail_start_ = std::exp(mu_ + sigma_ * z);
    double tail_mean = TruncatedParetoMean(tail_alpha_, tail_start_,
                                           static_cast<double>(max_size_));
    double next_body =
        (target - tail_fraction_ * tail_mean) / std::max(1.0 - tail_fraction_, 1e-9);
    // Guard against a tail so heavy it would demand body_mean <= median.
    next_body = std::max(next_body, med * 1.05);
    if (std::abs(next_body - body_mean) < 0.01 * target) {
      body_mean = next_body;
      sigma_ = std::sqrt(2.0 * std::log(std::max(body_mean / med, 1.000001)));
      tail_start_ = std::exp(mu_ + sigma_ * z);
      break;
    }
    // Damped update: the raw fixed-point iteration can oscillate because
    // tail_start reacts strongly to sigma.
    body_mean = 0.5 * (body_mean + next_body);
  }
}

uint64_t FileSizeDistribution::Sample(Rng& rng) const {
  double v;
  if (tail_fraction_ > 0.0 && rng.NextBool(tail_fraction_)) {
    // Pareto tail: x = start / u^(1/alpha).
    double u = std::max(rng.NextDouble(), 1e-12);
    v = tail_start_ / std::pow(u, 1.0 / tail_alpha_);
  } else {
    v = std::exp(mu_ + sigma_ * rng.NextGaussian());
  }
  if (v < 0.0) {
    v = 0.0;
  }
  uint64_t size = static_cast<uint64_t>(v);
  return std::min(size, max_size_);
}

}  // namespace past
