// Workload generator tests: Table 1 capacity distributions and the synthetic
// NLANR / filesystem traces.
#include <gtest/gtest.h>

#include <numeric>
#include <ostream>

#include "src/workload/capacity.h"
#include "src/workload/trace_generator.h"

namespace past {

// Prints a distribution parameter by name. The default would print the
// pointer, and discovered test names carry it, so they would change from run
// to run under address randomisation.
void PrintTo(const CapacityDistribution* dist, std::ostream* os) { *os << dist->name; }

namespace {

TEST(CapacityTest, Table1Parameters) {
  EXPECT_EQ(CapacityD1().mean_mb, 27.0);
  EXPECT_EQ(CapacityD1().sigma_mb, 10.8);
  EXPECT_EQ(CapacityD2().sigma_mb, 9.6);
  EXPECT_EQ(CapacityD3().sigma_mb, 54.0);
  EXPECT_EQ(CapacityD4().lower_mb, 1.0);
  EXPECT_EQ(CapacityByName("d3"), &CapacityD3());
  EXPECT_EQ(CapacityByName("d9"), nullptr);
}

class CapacitySampleTest : public ::testing::TestWithParam<const CapacityDistribution*> {};

TEST_P(CapacitySampleTest, SamplesWithinBoundsAndNearMean) {
  const CapacityDistribution& dist = *GetParam();
  Rng rng(140);
  auto caps = SampleCapacities(dist, 2250, 1.0, rng);
  ASSERT_EQ(caps.size(), 2250u);
  double total = std::accumulate(caps.begin(), caps.end(), 0.0);
  for (uint64_t c : caps) {
    EXPECT_GE(c, static_cast<uint64_t>(dist.lower_mb * 1e6));
    EXPECT_LE(c, static_cast<uint64_t>(dist.upper_mb * 1e6) + 1);
  }
  // Total capacity should be in the ballpark of Table 1's ~60 GB (for the
  // truncated d3/d4 the effective mean shifts, as in the paper's table).
  EXPECT_GT(total, 45e9);
  EXPECT_LT(total, 80e9);
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, CapacitySampleTest,
                         ::testing::Values(&CapacityD1(), &CapacityD2(), &CapacityD3(),
                                           &CapacityD4()));

TEST(CapacityTest, ScaleMultipliesEverything) {
  Rng rng1(141), rng2(141);
  auto base = SampleCapacities(CapacityD1(), 100, 1.0, rng1);
  auto scaled = SampleCapacities(CapacityD1(), 100, 0.5, rng2);
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(scaled[i]), static_cast<double>(base[i]) * 0.5,
                static_cast<double>(base[i]) * 0.01 + 2);
  }
}

TEST(WebTraceTest, InsertOnlyTraceShape) {
  WebTraceConfig config;
  config.catalog_size = 5000;
  config.total_references = 0;
  Trace trace = GenerateWebTrace(config);
  EXPECT_EQ(trace.file_sizes.size(), 5000u);
  EXPECT_EQ(trace.events.size(), 5000u);
  for (const TraceEvent& e : trace.events) {
    EXPECT_EQ(e.op, TraceOp::kInsert);
    EXPECT_LT(e.client, config.num_clients);
  }
}

TEST(WebTraceTest, SizeStatisticsMatchNlanr) {
  WebTraceConfig config;
  config.catalog_size = 150000;
  Trace trace = GenerateWebTrace(config);
  std::vector<uint64_t> sizes = trace.file_sizes;
  std::sort(sizes.begin(), sizes.end());
  uint64_t median = sizes[sizes.size() / 2];
  double mean = static_cast<double>(trace.TotalUniqueBytes()) / sizes.size();
  // Paper: median 1,312, mean 10,517.
  EXPECT_GT(median, 800u);
  EXPECT_LT(median, 2200u);
  EXPECT_GT(mean, 5000.0);
  EXPECT_LT(mean, 25000.0);
  EXPECT_LE(sizes.back(), 138ull * 1000 * 1000);
}

TEST(WebTraceTest, ReferenceStreamInsertsBeforeLookups) {
  WebTraceConfig config;
  config.catalog_size = 2000;
  config.total_references = 20000;
  Trace trace = GenerateWebTrace(config);
  std::vector<bool> inserted(config.catalog_size, false);
  size_t inserts = 0, lookups = 0;
  for (const TraceEvent& e : trace.events) {
    if (e.op == TraceOp::kInsert) {
      EXPECT_FALSE(inserted[e.file_index]) << "double insert";
      inserted[e.file_index] = true;
      ++inserts;
    } else {
      EXPECT_TRUE(inserted[e.file_index]) << "lookup before insert";
      ++lookups;
    }
  }
  EXPECT_EQ(inserts + lookups, 20000u);
  EXPECT_GT(lookups, inserts);  // Zipf reuse
}

TEST(WebTraceTest, PopularityIsSkewed) {
  WebTraceConfig config;
  config.catalog_size = 1000;
  config.total_references = 50000;
  Trace trace = GenerateWebTrace(config);
  std::vector<uint32_t> counts(config.catalog_size, 0);
  for (const TraceEvent& e : trace.events) {
    ++counts[e.file_index];
  }
  std::sort(counts.rbegin(), counts.rend());
  // Top 10% of files should attract far more than 10% of references.
  uint64_t top = std::accumulate(counts.begin(), counts.begin() + 100, 0ull);
  EXPECT_GT(top, 50000ull / 4);
}

TEST(WebTraceTest, RepeatLookupsClusterGeographically) {
  WebTraceConfig config;
  config.catalog_size = 200;
  config.total_references = 40000;
  config.cluster_affinity = 0.7;
  Trace trace = GenerateWebTrace(config);
  // Track each file's home cluster from its insert; count lookups landing in
  // the home cluster.
  std::vector<int> home(config.catalog_size, -1);
  uint64_t in_home = 0, total = 0;
  for (const TraceEvent& e : trace.events) {
    uint32_t cluster = trace.ClusterOf(e.client);
    if (e.op == TraceOp::kInsert) {
      home[e.file_index] = static_cast<int>(cluster);
    } else {
      ++total;
      if (static_cast<int>(cluster) == home[e.file_index]) {
        ++in_home;
      }
    }
  }
  ASSERT_GT(total, 0u);
  double ratio = static_cast<double>(in_home) / static_cast<double>(total);
  // Uniform would give 1/8 = 0.125; affinity 0.7 gives ~0.74.
  EXPECT_GT(ratio, 0.5);
}

TEST(FilesystemTraceTest, SizeStatisticsMatchPaper) {
  FilesystemTraceConfig config;
  config.catalog_size = 100000;
  Trace trace = GenerateFilesystemTrace(config);
  std::vector<uint64_t> sizes = trace.file_sizes;
  std::sort(sizes.begin(), sizes.end());
  uint64_t median = sizes[sizes.size() / 2];
  double mean = static_cast<double>(trace.TotalUniqueBytes()) / sizes.size();
  // Paper: median 4,578, mean 88,233 — much heavier than the web trace.
  EXPECT_GT(median, 3000u);
  EXPECT_LT(median, 7000u);
  EXPECT_GT(mean, 40000.0);
  EXPECT_LT(mean, 250000.0);
}

TEST(TraceTest, ClusterOfPartitionsClients) {
  Trace trace;
  trace.num_clients = 775;
  trace.num_clusters = 8;
  EXPECT_EQ(trace.ClusterOf(0), 0u);
  EXPECT_EQ(trace.ClusterOf(774), 7u);
  for (uint32_t c = 0; c + 1 < 775; ++c) {
    EXPECT_LE(trace.ClusterOf(c), trace.ClusterOf(c + 1));
  }
}

}  // namespace
}  // namespace past
