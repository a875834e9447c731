// End-to-end harness tests: a miniature version of the paper's experiments
// must show the qualitative shapes the full benches reproduce.
#include <gtest/gtest.h>

#include "src/harness/cli.h"
#include "src/harness/experiment.h"
#include "src/harness/table_printer.h"

namespace past {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.num_nodes = 60;
  config.catalog_size = 0;  // auto: 800 files per node
  config.curve_samples = 20;
  config.seed = 170;
  return config;
}

TEST(HarnessTest, StorageExperimentReachesHighUtilization) {
  ExperimentConfig config = SmallConfig();
  ExperimentResult result = RunExperiment(config);
  EXPECT_EQ(result.files_attempted, 48000u);
  EXPECT_GT(result.success_ratio, 0.80);
  EXPECT_GT(result.final_utilization, 0.80);
  EXPECT_FALSE(result.curve.empty());
  // Utilization is monotonically nondecreasing along the curve.
  for (size_t i = 1; i < result.curve.size(); ++i) {
    EXPECT_GE(result.curve[i].utilization + 1e-9, result.curve[i - 1].utilization);
  }
}

TEST(HarnessTest, NoDiversionBaselineIsWorse) {
  ExperimentConfig with = SmallConfig();
  ExperimentResult diverted = RunExperiment(with);

  ExperimentConfig without = SmallConfig();
  without.past.policy.t_pri = 1.0;
  without.past.policy.t_div = 0.0;
  without.past.enable_replica_diversion = false;
  without.past.enable_file_diversion = false;
  ExperimentResult baseline = RunExperiment(without);

  // The paper's headline: without diversion, far more failures and much
  // lower final utilization (51.1% fail / 60.8% util at paper scale).
  EXPECT_GT(baseline.failure_ratio, diverted.failure_ratio);
  EXPECT_LT(baseline.final_utilization, diverted.final_utilization);
}

TEST(HarnessTest, FailuresAreBiasedTowardLargeFiles) {
  ExperimentConfig config = SmallConfig();
  ExperimentResult result = RunExperiment(config);
  if (result.failures.size() < 10) {
    GTEST_SKIP() << "too few failures to compare";
  }
  double failed_mean = 0.0;
  for (const FailureRecord& f : result.failures) {
    failed_mean += static_cast<double>(f.size);
  }
  failed_mean /= static_cast<double>(result.failures.size());
  EXPECT_GT(failed_mean, result.mean_file_size);
}

TEST(HarnessTest, CachingExperimentProducesHitsAndFewerHops) {
  ExperimentConfig cached = SmallConfig();
  cached.catalog_size = 3000;
  cached.total_references = 30000;
  cached.past.cache_mode = CacheMode::kGreedyDualSize;
  ExperimentResult with_cache = RunExperiment(cached);

  ExperimentConfig uncached = cached;
  uncached.past.cache_mode = CacheMode::kNone;
  ExperimentResult without_cache = RunExperiment(uncached);

  EXPECT_GT(with_cache.lookups, 0u);
  EXPECT_GT(with_cache.global_cache_hit_rate, 0.1);
  EXPECT_EQ(without_cache.global_cache_hit_rate, 0.0);
  EXPECT_LT(with_cache.avg_lookup_hops, without_cache.avg_lookup_hops);
}

// Pins the exact cache totals of a small web-trace run under each eviction
// policy, so a change to the policies' data structures that alters a single
// victim choice shows up here.
TEST(HarnessTest, CacheTotalsPinnedPerPolicy) {
  struct Pin {
    CacheMode mode;
    uint64_t hits, misses, insertions, evictions;
    double hit_rate, hops;
  };
  const Pin pins[] = {
      {CacheMode::kGreedyDualSize, 10831, 14766, 17049, 8226, 0.40592909077280565,
       0.55340679109512025},
      {CacheMode::kLru, 8624, 17085, 19369, 15564, 0.32321415186267893, 0.64031931639307393},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(static_cast<int>(pin.mode));
    ExperimentConfig config = SmallConfig();
    config.catalog_size = 3000;
    config.total_references = 30000;
    config.past.cache_mode = pin.mode;
    ExperimentResult result = RunExperiment(config);
    EXPECT_EQ(result.metrics.CounterValue("node.cache.hits"), pin.hits);
    EXPECT_EQ(result.metrics.CounterValue("node.cache.misses"), pin.misses);
    EXPECT_EQ(result.metrics.CounterValue("node.cache.insertions"), pin.insertions);
    EXPECT_EQ(result.metrics.CounterValue("node.cache.evictions"), pin.evictions);
    EXPECT_EQ(result.global_cache_hit_rate, pin.hit_rate);
    EXPECT_EQ(result.avg_lookup_hops, pin.hops);
  }
}

// Pins the exact placement outcome of one saturating web-trace run (demand
// factor 1.53) per placement configuration, so a change to how diversion
// targets are chosen that alters a single choice or draw shows up here.
TEST(HarnessTest, PlacementTotalsPinnedPerPolicy) {
  struct Pin {
    const char* name;
    PlacementPolicy placement;
    uint64_t inserted, failed;
    double replica_diversion, file_diversion, utilization;
  };
  // Recorded before the diversion-target choice moved into rank order.
  const Pin pins[] = {
      {"kclosest/max-free", {PlacementKind::kKClosestDiversion, 0}, 44741, 3259,
       0.1496926756219128, 0.0016763147895666167, 0.9999590572935011},
      {"kclosest/random", {PlacementKind::kKClosestRandom, 0}, 42306, 5694,
       0.13330496856237886, 0.16860492601522242, 0.91488284642124595},
      {"kclosest/first-fit", {PlacementKind::kKClosestFirstFit, 0}, 41387, 6613,
       0.18017735037572186, 0.025539420591006837, 0.98772394365888161},
      {"residual/shed-64", {PlacementKind::kResidualPerformance, 64}, 47758, 242,
       0.98546840319946394, 0.0017588676242723733, 0.97548093711830908},
      {"random", {PlacementKind::kRandomizedCacheSize, 0}, 42835, 5165, 0.14253297537060813,
       0.12620520602311194, 0.94623728051775435},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    ExperimentConfig config = SmallConfig();
    config.past.placement = pin.placement;
    ASSERT_EQ(config.demand_factor, 1.53);
    ExperimentResult result = RunExperiment(config);
    EXPECT_EQ(result.files_inserted, pin.inserted);
    EXPECT_EQ(result.files_failed, pin.failed);
    EXPECT_EQ(result.replica_diversion_ratio, pin.replica_diversion);
    EXPECT_EQ(result.file_diversion_ratio, pin.file_diversion);
    EXPECT_EQ(result.final_utilization, pin.utilization);
  }
}

TEST(HarnessTest, FilesystemWorkloadRuns) {
  // Figure 7's workload: much heavier-tailed file sizes; the shape claims
  // (high utilization, failures biased to large files) must hold here too.
  ExperimentConfig config = SmallConfig();
  config.workload = WorkloadKind::kFilesystem;
  config.num_nodes = 50;
  config.catalog_size = 20000;
  ExperimentResult result = RunExperiment(config);
  EXPECT_GT(result.mean_file_size, 40000.0);  // fs trace mean ~88 KB
  EXPECT_GT(result.final_utilization, 0.70);
  EXPECT_GT(result.success_ratio, 0.80);
  if (result.failures.size() >= 10) {
    double failed_mean = 0.0;
    for (const FailureRecord& f : result.failures) {
      failed_mean += static_cast<double>(f.size);
    }
    failed_mean /= static_cast<double>(result.failures.size());
    EXPECT_GT(failed_mean, result.mean_file_size);
  }
}

TEST(HarnessTest, DemandFactorControlsSaturation) {
  // With demand well below capacity the trace cannot saturate the system
  // and nothing should fail.
  ExperimentConfig config = SmallConfig();
  config.num_nodes = 40;
  config.catalog_size = 10000;
  config.demand_factor = 0.5;  // only half the capacity demanded
  ExperimentResult result = RunExperiment(config);
  EXPECT_LT(result.final_utilization, 0.60);
  EXPECT_GT(result.success_ratio, 0.995);
}

TEST(HarnessTest, DeterministicAcrossRuns) {
  ExperimentConfig config = SmallConfig();
  config.num_nodes = 40;
  config.catalog_size = 2000;
  ExperimentResult a = RunExperiment(config);
  ExperimentResult b = RunExperiment(config);
  EXPECT_EQ(a.files_inserted, b.files_inserted);
  EXPECT_DOUBLE_EQ(a.final_utilization, b.final_utilization);
}

TEST(CommandLineTest, ParsesFlags) {
  const char* argv[] = {"bench", "--nodes", "500", "--tpri", "0.2", "--paper-scale",
                        "--dist", "d3"};
  CommandLine cli(8, const_cast<char**>(argv));
  EXPECT_EQ(cli.GetInt("--nodes", 100), 500);
  EXPECT_DOUBLE_EQ(cli.GetDouble("--tpri", 0.1), 0.2);
  EXPECT_TRUE(cli.Has("--paper-scale"));
  EXPECT_FALSE(cli.Has("--csv"));
  EXPECT_EQ(cli.GetString("--dist", "d1"), "d3");
  EXPECT_EQ(cli.GetInt("--missing", 7), 7);
}

TEST(CommandLineTest, RejectsFlagsNeverRead) {
  const char* argv[] = {"bench", "--smoke", "--coop-cache", "1", "--metrics-json", "m.json",
                        "--nodes", "60"};
  CommandLine cli(8, const_cast<char**>(argv));
  EXPECT_TRUE(cli.Has("--smoke"));
  EXPECT_EQ(cli.UnknownFlags(),
            (std::vector<std::string>{"--coop-cache", "--metrics-json", "--nodes"}));
  EXPECT_EQ(cli.GetString("--metrics-json", ""), "m.json");
  EXPECT_EQ(cli.GetInt("--nodes", 300), 60);
  EXPECT_EQ(cli.UnknownFlags(), std::vector<std::string>{"--coop-cache"});
  EXPECT_EXIT(cli.ExitOnUnknownFlags(), ::testing::ExitedWithCode(2),
              "error: unknown flag --coop-cache");

  // A bare run has nothing to reject.
  const char* bare[] = {"bench"};
  CommandLine bare_cli(1, const_cast<char**>(bare));
  EXPECT_TRUE(bare_cli.UnknownFlags().empty());
  bare_cli.ExitOnUnknownFlags();
}

// A word that is neither a flag nor the value after one would otherwise be
// dropped without a word: `--nodes 60 70` runs 60 nodes.
TEST(CommandLineTest, RejectsStrayWords) {
  for (const std::vector<const char*>& words :
       {std::vector<const char*>{"bench", "foo", "--nodes", "60"},
        std::vector<const char*>{"bench", "--nodes", "60", "70"},
        std::vector<const char*>{"bench", "--smoke", "extra"}}) {
    CommandLine cli(static_cast<int>(words.size()), const_cast<char**>(words.data()));
    cli.GetInt("--nodes", 300);
    cli.Has("--smoke");
    EXPECT_TRUE(cli.UnknownFlags().empty());
    EXPECT_EXIT(cli.ExitOnUnknownFlags(), ::testing::ExitedWithCode(2),
                "error: unexpected argument");
  }
  // A word read by Has is a flag of its own (sim_soak's `-h`).
  const char* help[] = {"tool", "-h"};
  CommandLine help_cli(2, const_cast<char**>(help));
  EXPECT_TRUE(help_cli.Has("-h"));
  help_cli.ExitOnUnknownFlags();
}

TEST(CommandLineTest, RejectsValuesThatAreNotNumbers) {
  const char* argv[] = {"bench", "--jobs", "two", "--nodes", "60x", "--tpri", "0.2.1",
                        "--seed", "-7", "--tdiv", "5e-2"};
  CommandLine cli(11, const_cast<char**>(argv));
  // Every bench casts an integer flag to an unsigned count or seed.
  EXPECT_EXIT(cli.GetInt("--seed", 42), ::testing::ExitedWithCode(2),
              "error: --seed needs a non-negative integer, got '-7'");
  EXPECT_DOUBLE_EQ(cli.GetDouble("--tdiv", 0.05), 0.05);
  EXPECT_EXIT(cli.GetInt("--jobs", 1), ::testing::ExitedWithCode(2),
              "error: --jobs needs an integer, got 'two'");
  EXPECT_EXIT(cli.GetInt("--nodes", 300), ::testing::ExitedWithCode(2), "error: --nodes");
  EXPECT_EXIT(cli.GetDouble("--tpri", 0.1), ::testing::ExitedWithCode(2),
              "error: --tpri needs a number, got '0.2.1'");
}

TEST(CommandLineTest, RejectsNegativeCounts) {
  // As a size_t, --nodes -1 would ask for 2^64 - 1 nodes and --jobs -1 for
  // SIZE_MAX worker threads; both exit before any bench reads them.
  const char* argv[] = {"bench", "--nodes", "-1", "--jobs", "-1", "--seed", "0"};
  CommandLine cli(7, const_cast<char**>(argv));
  EXPECT_EXIT(cli.GetInt("--nodes", 300), ::testing::ExitedWithCode(2),
              "error: --nodes needs a non-negative integer, got '-1'");
  EXPECT_EXIT(cli.GetInt("--jobs", 1), ::testing::ExitedWithCode(2),
              "error: --jobs needs a non-negative integer");
  EXPECT_EQ(cli.GetInt("--seed", 42), 0);
}

TEST(CommandLineTest, RejectsAFlagInPlaceOfAValue) {
  // `--metrics-json` is missing its file name, so it would swallow the first
  // `--nodes` and leave `--nodes` reading the word `--nodes` as its value.
  const char* argv[] = {"bench", "--metrics-json", "--nodes", "--nodes", "60", "--seed"};
  CommandLine cli(6, const_cast<char**>(argv));
  EXPECT_EXIT(cli.GetInt("--nodes", 300), ::testing::ExitedWithCode(2),
              "error: --nodes needs a value");
  EXPECT_EXIT(cli.GetString("--metrics-json", ""), ::testing::ExitedWithCode(2),
              "error: --metrics-json needs a value");
  // A valued flag at the end of the line has no value either.
  EXPECT_EXIT(cli.GetInt("--seed", 42), ::testing::ExitedWithCode(2),
              "error: --seed needs a value");
}

TEST(CommandLineTest, RejectsAValuedFlagGivenTwice) {
  // Reading only the first `--nodes` would run 60 nodes without a word.
  const char* argv[] = {"bench", "--nodes", "60", "--nodes", "70", "--seed", "3", "--smoke",
                        "--smoke"};
  CommandLine cli(9, const_cast<char**>(argv));
  EXPECT_EXIT(cli.GetInt("--nodes", 300), ::testing::ExitedWithCode(2),
              "error: --nodes is given more than once");
  EXPECT_EXIT(cli.GetString("--nodes", ""), ::testing::ExitedWithCode(2), "error: --nodes");
  // A flag given once still reads, and a repeated switch is just present.
  EXPECT_EQ(cli.GetInt("--seed", 42), 3);
  EXPECT_TRUE(cli.Has("--smoke"));
}

TEST(PercentileTest, ExactValues) {
  std::vector<double> v = {5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(FloorRankPercentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(FloorRankPercentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(FloorRankPercentile(v, 0.5), 3.0);
  // Rank floor(0.3 * 4) = 1: the floor rank, not an interpolated 2.2.
  EXPECT_DOUBLE_EQ(FloorRankPercentile(v, 0.3), 2.0);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(FloorRankPercentile(empty, 0.5), 0.0);
}

TEST(TablePrinterTest, FormatHelpers) {
  EXPECT_EQ(TablePrinter::Pct(0.123), "12.3%");
  EXPECT_EQ(TablePrinter::Pct(0.5, 0), "50%");
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Int(42), "42");
}

}  // namespace
}  // namespace past
