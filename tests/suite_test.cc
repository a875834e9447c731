// Tests for RunExperimentSuite: parallel == serial bit-for-bit, seed
// derivation, validation, and result ordering.
#include "src/harness/suite.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace past {
namespace {

ExperimentConfig TinyConfig() {
  ExperimentConfig config;
  config.num_nodes = 30;
  config.catalog_size = 1500;
  config.curve_samples = 5;
  config.seed = 500;
  return config;
}

std::vector<ExperimentConfig> SweepConfigs() {
  std::vector<ExperimentConfig> configs;
  for (double t_pri : {0.5, 0.2, 0.1, 0.05}) {
    ExperimentConfig config = TinyConfig();
    config.past.policy.t_pri = t_pri;
    configs.push_back(config);
  }
  return configs;
}

void ExpectSameResults(const std::vector<ExperimentResult>& a,
                       const std::vector<ExperimentResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].files_attempted, b[i].files_attempted) << "config " << i;
    EXPECT_EQ(a[i].files_inserted, b[i].files_inserted) << "config " << i;
    EXPECT_EQ(a[i].files_failed, b[i].files_failed) << "config " << i;
    EXPECT_DOUBLE_EQ(a[i].final_utilization, b[i].final_utilization) << "config " << i;
    EXPECT_DOUBLE_EQ(a[i].replica_diversion_ratio, b[i].replica_diversion_ratio)
        << "config " << i;
  }
}

TEST(SuiteTest, ParallelMatchesSerialBitForBit) {
  SuiteOptions serial;
  serial.jobs = 1;
  std::vector<ExperimentResult> one = RunExperimentSuite(SweepConfigs(), serial);

  SuiteOptions parallel;
  parallel.jobs = 4;
  std::vector<ExperimentResult> four = RunExperimentSuite(SweepConfigs(), parallel);

  ExpectSameResults(one, four);
}

TEST(SuiteTest, ResultsComeBackInInputOrder) {
  // Configs with very different run times (different node counts) still
  // return in input order, not completion order.
  std::vector<ExperimentConfig> configs;
  for (size_t nodes : {50u, 25u, 40u, 30u}) {
    ExperimentConfig config = TinyConfig();
    config.num_nodes = nodes;
    configs.push_back(config);
  }
  SuiteOptions options;
  options.jobs = 4;
  std::vector<ExperimentResult> results = RunExperimentSuite(configs, options);
  ASSERT_EQ(results.size(), 4u);
  // Total capacity scales with node count: order must match the input.
  EXPECT_GT(results[0].total_capacity, results[1].total_capacity);
  EXPECT_GT(results[2].total_capacity, results[3].total_capacity);
}

TEST(SuiteTest, DerivesSeedFromConfigIndex) {
  // config[i] must run with seed + i: compare against RunExperiment directly.
  std::vector<ExperimentConfig> configs = {TinyConfig(), TinyConfig()};
  SuiteOptions options;
  options.jobs = 1;
  std::vector<ExperimentResult> suite = RunExperimentSuite(configs, options);

  ExperimentConfig second = TinyConfig();
  second.seed += 1;
  ExperimentResult direct = RunExperiment(second);
  EXPECT_EQ(suite[1].files_inserted, direct.files_inserted);
  EXPECT_DOUBLE_EQ(suite[1].final_utilization, direct.final_utilization);

  // And with derivation disabled both configs replay the identical stream.
  options.derive_seeds = false;
  std::vector<ExperimentResult> verbatim = RunExperimentSuite(configs, options);
  EXPECT_EQ(verbatim[0].files_inserted, verbatim[1].files_inserted);
  EXPECT_DOUBLE_EQ(verbatim[0].final_utilization, verbatim[1].final_utilization);
}

TEST(SuiteTest, ValidatesEveryConfigUpFront) {
  std::vector<ExperimentConfig> configs = SweepConfigs();
  configs[1].num_nodes = 0;             // invalid
  configs[3].past.policy.t_pri = -2.0;  // invalid
  try {
    RunExperimentSuite(configs, SuiteOptions{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    // Both bad configs are reported, by index, in one exception.
    EXPECT_NE(message.find("config[1]"), std::string::npos) << message;
    EXPECT_NE(message.find("config[3]"), std::string::npos) << message;
  }
}

TEST(SuiteTest, EmptySuiteReturnsEmpty) {
  EXPECT_TRUE(RunExperimentSuite({}, SuiteOptions{}).empty());
}

}  // namespace
}  // namespace past
