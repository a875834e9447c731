// Shard-invariance and consistency tests for the epoch-sharded scale engine.
//
// The determinism contract is that --jobs changes only wall-clock time: runs
// with 1/2/4/8 shards must produce bit-identical network state and op
// schedules. These tests pin that contract at tier-1 sizes (hundreds of
// nodes); the 20-seed soak and the 10k-node smoke in CI cover larger runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/invariant_checker.h"
#include "src/sim/scale_engine.h"

namespace past {
namespace {

ScaleConfig SmallConfig(uint64_t seed) {
  ScaleConfig config;
  config.nodes = 260;
  config.seed = seed;
  config.epochs = 3;
  config.inserts_per_epoch = 60;
  config.lookups_per_epoch = 60;
  config.crashes_per_epoch = 6;
  config.joins_per_epoch = 3;
  config.sweep_period = 2;
  config.node_capacity = 4'000'000;
  config.mean_file_size = 40'000;
  return config;
}

struct RunWitness {
  std::string state;
  std::string schedule;
  ScaleReport report;
};

RunWitness RunWith(ScaleConfig config, size_t jobs) {
  config.jobs = jobs;
  ScaleEngine engine(config);
  ScaleReport report = engine.Run();
  return {report.state_fingerprint, report.schedule_fingerprint, report};
}

TEST(ScaleEngineTest, ShardCountInvariantAcrossSeeds) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    RunWitness serial = RunWith(SmallConfig(seed), 1);
    for (size_t jobs : {size_t{2}, size_t{4}, size_t{8}}) {
      RunWitness sharded = RunWith(SmallConfig(seed), jobs);
      EXPECT_EQ(sharded.state, serial.state) << "seed " << seed << " jobs " << jobs;
      EXPECT_EQ(sharded.schedule, serial.schedule) << "seed " << seed << " jobs " << jobs;
      EXPECT_EQ(sharded.report.inserts_stored, serial.report.inserts_stored);
      EXPECT_EQ(sharded.report.lookups_found, serial.report.lookups_found);
      EXPECT_EQ(sharded.report.route_hops, serial.report.route_hops);
    }
  }
}

// Absolute goldens for SmallConfig seeds 1-5 (crashes, joins, one sweep at
// the end of epoch 2). The shard-invariance test above only checks that the
// job counts agree with each other; these pin what they agree on, so a
// change to the sweep or repair path that moves every job count in lockstep
// still fails here. Recorded before the sweep's parallel diagnose pass
// existed; never re-pin them to accommodate a sweep change.
struct ScaleGolden {
  uint64_t seed;
  const char* state;
  const char* schedule;
};

constexpr ScaleGolden kScaleGoldens[] = {
    {1, "30e3b40ab99f7ab029a7c2a35e19176f04094042", "59018e6f2bed71b43a305e86ae904ea357414181"},
    {2, "345778a0a53fb81a03c30f6dd00d4063ce026abe", "95c8fa62528b75a3a479b29d1cb44ae7d94d978b"},
    {3, "4ebf40385d9e86d2239337949922ec1edcd6aa39", "7b1dd8a2232259a772784ac672252194c4ec1eb8"},
    {4, "e7ac5797f4a7ac060327cb67a17487becef64f4a", "92a7ce5e7c02c5455af2e80956344667287dd4e0"},
    {5, "13af6483ab592227e66699a39f0ba61748328542", "359d8dd4d0939e1aedfb7056decda1e858443b04"},
};

TEST(ScaleEngineTest, GoldenFingerprints) {
  for (const ScaleGolden& golden : kScaleGoldens) {
    for (size_t jobs : {size_t{1}, size_t{4}}) {
      RunWitness w = RunWith(SmallConfig(golden.seed), jobs);
      EXPECT_EQ(w.state, golden.state) << "seed " << golden.seed << " jobs " << jobs;
      EXPECT_EQ(w.schedule, golden.schedule) << "seed " << golden.seed << " jobs " << jobs;
    }
  }
}

// SmallConfig driven to saturation: 1 MB per node instead of 4 MB and ten
// times the insert rate, ending near 65% utilization with 85-143 diverted
// replicas and roughly a third of the 2,400 inserts failing. Phase B
// therefore diverts replicas, installs witness pointers and rolls back
// declined inserts; the goldens above run at a few percent utilization and
// never take those paths. Recorded before Phase B moved onto the shared
// PastNetwork placement steps; never re-pin them to accommodate a placement
// change.
ScaleConfig SaturatedConfig(uint64_t seed) {
  ScaleConfig config = SmallConfig(seed);
  config.node_capacity = 1'000'000;
  config.inserts_per_epoch = 600;
  config.epochs = 4;
  return config;
}

constexpr ScaleGolden kSaturatedGoldens[] = {
    {1, "09a9a8d6114a909759bb0c6f91ccbc22c610a970", "2e6cfbd68701f5a7097dcba5257ed7f4a6099f92"},
    {2, "174d0bff4957931c2bfc4a0e40e258c99325be43", "ab42be9fa38ed785dd071c4665c50b24ea5d57f6"},
    {3, "658fbf28de30c9c9cfc3e624ee7d6e175cd49c99", "b3fc425b7a52e6896ad941af0cec4738f081a8bb"},
};

TEST(ScaleEngineTest, SaturatedGoldenFingerprints) {
  for (const ScaleGolden& golden : kSaturatedGoldens) {
    for (size_t jobs : {size_t{1}, size_t{4}}) {
      ScaleConfig config = SaturatedConfig(golden.seed);
      config.jobs = jobs;
      ScaleEngine engine(config);
      engine.BuildNetwork();
      for (size_t e = 0; e < config.epochs; ++e) {
        engine.RunEpoch();
        // The engine's accounting (total_stored, replica gauges) must match
        // a full census after every epoch, sweep or not.
        InvariantReport audit = InvariantChecker().CheckDuringOps(engine.network());
        EXPECT_TRUE(audit.ok()) << "seed " << golden.seed << " jobs " << jobs << " epoch " << e
                                << ": " << audit.Summary();
      }
      ScaleReport report = engine.BuildReport();
      EXPECT_GT(engine.network().CountReplicas().diverted, 0u) << "seed " << golden.seed;
      EXPECT_LT(report.inserts_stored, report.inserts) << "seed " << golden.seed;
      EXPECT_EQ(report.state_fingerprint, golden.state)
          << "seed " << golden.seed << " jobs " << jobs;
      EXPECT_EQ(report.schedule_fingerprint, golden.schedule)
          << "seed " << golden.seed << " jobs " << jobs;
    }
  }
}

// The past.* op instruments mean the same thing in both engines: one insert
// attempt and one hops sample per insert, lookup hops for found lookups
// only, and a tier miss for every lookup no cache served (the scale engine
// has no caches and no timeouts). Each must agree with the report's tallies.
TEST(ScaleEngineTest, RegistryAgreesWithReport) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    ScaleConfig config = SaturatedConfig(seed);
    config.jobs = 2;
    ScaleEngine engine(config);
    ScaleReport report = engine.Run();
    obs::MetricsSnapshot m = engine.network().metrics().Snapshot();
    const obs::HistogramSnapshot* insert_hops = m.FindHistogram("past.insert.hops");
    const obs::HistogramSnapshot* lookup_hops = m.FindHistogram("past.lookup.hops");
    ASSERT_NE(insert_hops, nullptr);
    ASSERT_NE(lookup_hops, nullptr);
    EXPECT_EQ(m.CounterValue("past.insert.attempts"), report.inserts) << "seed " << seed;
    EXPECT_EQ(m.CounterValue("past.insert.attempts") - m.CounterValue("past.insert.failures"),
              report.inserts_stored)
        << "seed " << seed;
    EXPECT_EQ(insert_hops->count, report.inserts) << "seed " << seed;
    EXPECT_EQ(m.CounterValue("past.lookup.requests"), report.lookups) << "seed " << seed;
    EXPECT_EQ(m.CounterValue("past.lookup.found"), report.lookups_found) << "seed " << seed;
    EXPECT_EQ(lookup_hops->count, report.lookups_found) << "seed " << seed;
    EXPECT_EQ(m.CounterValue("past.cache.tier_misses"), report.lookups) << "seed " << seed;
  }
}

TEST(ScaleEngineTest, DifferentSeedsDiverge) {
  RunWitness a = RunWith(SmallConfig(11), 2);
  RunWitness b = RunWith(SmallConfig(12), 2);
  EXPECT_NE(a.state, b.state);
  EXPECT_NE(a.schedule, b.schedule);
}

TEST(ScaleEngineTest, RerunIsReproducible) {
  RunWitness first = RunWith(SmallConfig(7), 4);
  RunWitness second = RunWith(SmallConfig(7), 4);
  EXPECT_EQ(first.state, second.state);
  EXPECT_EQ(first.schedule, second.schedule);
}

TEST(ScaleEngineTest, ShardStatsSumToOpOrderTotals) {
  ScaleConfig config = SmallConfig(3);
  config.jobs = 4;
  ScaleEngine engine(config);
  engine.Run();
  TransportStats merged;
  for (const TransportStats& shard : engine.shard_stats()) {
    merged.MergeFrom(shard);
  }
  const TransportStats& totals = engine.op_route_totals();
  EXPECT_EQ(merged.hops(), totals.hops());
  EXPECT_EQ(merged.messages(), totals.messages());
  EXPECT_EQ(merged.bytes_sent(), totals.bytes_sent());
  EXPECT_EQ(merged.rpcs(), totals.rpcs());
  // Doubles accumulate in different orders (shard order vs op order), so the
  // sums agree only up to rounding.
  EXPECT_NEAR(merged.total_distance(), totals.total_distance(),
              1e-9 * (1.0 + totals.total_distance()));
}

TEST(ScaleEngineTest, ReportIsCoherent) {
  ScaleConfig config = SmallConfig(9);
  config.jobs = 2;
  ScaleEngine engine(config);
  ScaleReport report = engine.Run();

  EXPECT_EQ(report.inserts, config.epochs * config.inserts_per_epoch);
  EXPECT_LE(report.inserts_stored, report.inserts);
  EXPECT_GT(report.inserts_stored, 0u);
  EXPECT_LE(report.lookups_found, report.lookups);
  // Lookups target committed files on a network with full replication and
  // light churn; the overwhelming majority must be found.
  EXPECT_GT(report.lookups_found * 10, report.lookups * 9);
  EXPECT_GT(report.route_hops, 0u);
  EXPECT_EQ(report.files_tracked, report.inserts_stored);
  EXPECT_GT(report.utilization, 0.0);
  EXPECT_LT(report.utilization, 1.0);
  EXPECT_EQ(report.state_fingerprint.size(), 40u);  // SHA-1 hex
  EXPECT_EQ(report.schedule_fingerprint.size(), 40u);

  // Churn happened and stayed bounded.
  size_t expected_live = config.nodes;
  for (const ScaleEpochStats& epoch : engine.epoch_stats()) {
    expected_live -= epoch.crashes;
    expected_live += epoch.joins;
  }
  EXPECT_EQ(report.live_nodes, expected_live);
}

TEST(ScaleEngineTest, MeanFieldWindowIsPopulated) {
  ScaleConfig config = SmallConfig(5);
  config.jobs = 2;
  // sweep_period=2 with 3 epochs leaves a one-epoch measurement window after
  // the sweep at the end of epoch 2.
  ScaleEngine engine(config);
  ScaleReport report = engine.Run();
  ASSERT_FALSE(report.replica_histogram.empty());
  ASSERT_EQ(report.replica_histogram.size(), report.predicted_histogram.size());
  EXPECT_EQ(report.epochs_since_sweep, 1u);
  EXPECT_GT(report.eligible_files, 0u);
  EXPECT_GT(report.survival_probability, 0.0);
  EXPECT_LE(report.survival_probability, 1.0);
  // The two histograms' masses agree: both sum to the eligible-file count.
  uint64_t empirical_total = 0;
  for (uint64_t count : report.replica_histogram) {
    empirical_total += count;
  }
  double predicted_total = 0.0;
  for (double mass : report.predicted_histogram) {
    predicted_total += mass;
  }
  EXPECT_EQ(empirical_total, report.eligible_files);
  EXPECT_NEAR(predicted_total, static_cast<double>(report.eligible_files), 1e-6);
  EXPECT_GE(report.tv_distance, 0.0);
  EXPECT_LE(report.tv_distance, 1.0);
}

TEST(ScaleEngineTest, NoChurnKeepsEverythingFound) {
  ScaleConfig config = SmallConfig(2);
  config.crashes_per_epoch = 0;
  config.joins_per_epoch = 0;
  config.sweep_period = 0;
  config.jobs = 4;
  ScaleEngine engine(config);
  ScaleReport report = engine.Run();
  EXPECT_EQ(report.inserts_stored, report.inserts);
  EXPECT_EQ(report.lookups_found, report.lookups);
  EXPECT_EQ(report.live_nodes, config.nodes);
}

}  // namespace
}  // namespace past
