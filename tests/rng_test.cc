// Tests for the deterministic RNG and the workload distributions.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/distributions.h"
#include "src/common/rng.h"

namespace past {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextBelowStaysInBounds) {
  Rng rng(3);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(6);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(TruncatedNormalTest, RespectsBounds) {
  // Table 1 d1: mean 27, sigma 10.8, bounds [2, 51].
  TruncatedNormal dist(27.0, 10.8, 2.0, 51.0);
  Rng rng(8);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = dist.Sample(rng);
    ASSERT_GE(v, 2.0);
    ASSERT_LE(v, 51.0);
    sum += v;
  }
  EXPECT_NEAR(sum / n, 27.0, 0.5);
}

TEST(ZipfTest, RankZeroMostPopular) {
  Zipf zipf(1000, 0.8);
  Rng rng(9);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[500] - 50);
  // Zipf law check: count(0)/count(9) ~ 10^0.8 ~ 6.3.
  double ratio = static_cast<double>(counts[0]) / std::max(1, counts[9]);
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 12.0);
}

TEST(FileSizeDistributionTest, MatchesCalibratedMedianAndMean) {
  // NLANR statistics from the paper: median 1,312 / mean 10,517.
  FileSizeDistribution dist(1312, 10517, 0.0015, 1.1, 138ull * 1000 * 1000);
  Rng rng(10);
  std::vector<double> samples;
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = static_cast<double>(dist.Sample(rng));
    samples.push_back(v);
    sum += v;
  }
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  double median = samples[n / 2];
  EXPECT_NEAR(median, 1312.0, 250.0);
  double mean = sum / n;
  // The heavy tail makes the sample mean noisy; it must be the right order
  // of magnitude and well above the median.
  EXPECT_GT(mean, 4000.0);
  EXPECT_LT(mean, 40000.0);
}

TEST(FileSizeDistributionTest, NeverExceedsMax) {
  FileSizeDistribution dist(1312, 10517, 0.01, 1.05, 1000000);
  Rng rng(11);
  for (int i = 0; i < 100000; ++i) {
    EXPECT_LE(dist.Sample(rng), 1000000u);
  }
}

}  // namespace
}  // namespace past
