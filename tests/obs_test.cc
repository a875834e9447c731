// Observability layer tests: instrument semantics, bucket edges, scope
// aggregation, the JSONL trace sink, and agreement between the metrics
// registry and the legacy harness headline numbers.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/experiment.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/past/client.h"

namespace past {
namespace obs {
namespace {

TEST(ObsMetricsTest, CounterIsMonotonic) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsMetricsTest, GaugeMovesBothWays) {
  Gauge g;
  g.Set(10.0);
  g.Add(5.0);
  g.Sub(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 8.0);
}

TEST(ObsMetricsTest, HistogramBucketEdges) {
  HistogramMetric h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.buckets().size(), 4u);  // 3 bounds + overflow

  // An observation exactly on a bound lands in that bound's bucket
  // (bucket i counts observations <= upper_bounds[i]).
  h.Observe(1.0);
  EXPECT_EQ(h.buckets()[0], 1u);
  h.Observe(0.0);
  EXPECT_EQ(h.buckets()[0], 2u);
  h.Observe(1.5);
  EXPECT_EQ(h.buckets()[1], 1u);
  h.Observe(4.0);
  EXPECT_EQ(h.buckets()[2], 1u);
  h.Observe(4.0001);  // strictly above the last bound -> overflow bucket
  EXPECT_EQ(h.buckets()[3], 1u);

  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 0.0 + 1.5 + 4.0 + 4.0001);
  EXPECT_DOUBLE_EQ(h.mean(), h.sum() / 5.0);
}

TEST(ObsMetricsTest, BucketHelpers) {
  EXPECT_EQ(LinearBuckets(0.0, 1.0, 3), (std::vector<double>{0.0, 1.0, 2.0}));
  EXPECT_EQ(ExponentialBuckets(256.0, 4.0, 3), (std::vector<double>{256.0, 1024.0, 4096.0}));
  std::vector<double> hops = HopBuckets();
  ASSERT_EQ(hops.size(), 16u);
  EXPECT_DOUBLE_EQ(hops.front(), 0.0);
  EXPECT_DOUBLE_EQ(hops.back(), 15.0);
}

TEST(ObsMetricsTest, RegistryCreatesOnFirstAccessWithStableReferences) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.FindCounter("x"), nullptr);
  Counter& a = registry.GetCounter("x");
  Counter& b = registry.GetCounter("x");
  EXPECT_EQ(&a, &b);
  a.Inc(3);
  ASSERT_NE(registry.FindCounter("x"), nullptr);
  EXPECT_EQ(registry.FindCounter("x")->value(), 3u);

  // A histogram's bounds are consulted only on first creation.
  HistogramMetric& h1 = registry.GetHistogram("h", {1.0, 2.0});
  HistogramMetric& h2 = registry.GetHistogram("h", {99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.upper_bounds().size(), 2u);
}

TEST(ObsMetricsTest, SnapshotMergeAggregatesScopes) {
  // Two "node" registries merged into one network-wide view.
  MetricsRegistry node_a;
  MetricsRegistry node_b;
  node_a.GetCounter("node.cache.hits").Inc(3);
  node_b.GetCounter("node.cache.hits").Inc(4);
  node_a.GetGauge("node.store.used_bytes").Set(100.0);
  node_b.GetGauge("node.store.used_bytes").Set(50.0);
  node_a.GetHistogram("node.h", {1.0, 2.0}).Observe(0.5);
  node_b.GetHistogram("node.h", {1.0, 2.0}).Observe(1.5);
  node_b.GetHistogram("node.h", {1.0, 2.0}).Observe(9.0);

  MetricsSnapshot global = node_a.Snapshot();
  global.Merge(node_b.Snapshot());

  EXPECT_EQ(global.CounterValue("node.cache.hits"), 7u);
  EXPECT_DOUBLE_EQ(global.GaugeValue("node.store.used_bytes"), 150.0);
  const HistogramSnapshot* h = global.FindHistogram("node.h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_EQ(h->buckets, (std::vector<uint64_t>{1, 1, 1}));
  EXPECT_DOUBLE_EQ(h->sum, 11.0);

  // Missing names read as zero instead of throwing.
  EXPECT_EQ(global.CounterValue("never.created"), 0u);
  EXPECT_DOUBLE_EQ(global.GaugeValue("never.created"), 0.0);
  EXPECT_EQ(global.FindHistogram("never.created"), nullptr);
}

TEST(ObsMetricsTest, JsonOutputContainsAllSections) {
  MetricsRegistry registry;
  registry.GetCounter("c.one").Inc(7);
  registry.GetGauge("g.one").Set(2.5);
  registry.GetHistogram("h.one", {1.0}).Observe(0.5);
  std::string json = MetricsJson(registry.Snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"c.one\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"g.one\": 2.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"upper_bounds\""), std::string::npos);
}

TEST(ObsTraceTest, OpTraceJsonIsOneObjectWithKnownKeys) {
  OpTrace event;
  event.kind = TraceOpKind::kLookup;
  event.status = "found";
  event.hops = 3;
  std::string line = OpTraceJson(event);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"op\": \"lookup\""), std::string::npos);
  EXPECT_NE(line.find("\"status\": \"found\""), std::string::npos);
  EXPECT_NE(line.find("\"hops\": 3"), std::string::npos);
}

// Network-level: every node keeps its own registry; the network snapshot is
// the merge of the network scope plus every live node scope.
TEST(ObsScopeTest, PerNodeRegistriesAggregateIntoNetworkSnapshot) {
  PastConfig config;
  config.k = 3;
  TestDeployment deployment =
      BuildDeployment(/*num_nodes=*/40, /*capacity_per_node=*/10'000'000, config, /*seed=*/901);
  PastNetwork& network = *deployment.network;
  PastClient client(network, deployment.node_ids.front(), 1ull << 40, 902);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.Insert("file" + std::to_string(i), 4000 + i).stored);
  }

  MetricsSnapshot global = network.SnapshotMetrics();
  EXPECT_EQ(global.CounterValue("past.insert.attempts"), 20u);
  EXPECT_DOUBLE_EQ(global.GaugeValue("past.replicas.stored"), 60.0);  // 20 files * k=3

  // The per-node store gauges, summed over all nodes, match the global view.
  double replicas = 0.0;
  double used_bytes = 0.0;
  for (const NodeId& id : deployment.node_ids) {
    MetricsSnapshot node = network.NodeMetrics(id);
    replicas += node.GaugeValue("node.store.replicas");
    used_bytes += node.GaugeValue("node.store.used_bytes");
  }
  EXPECT_DOUBLE_EQ(replicas, 60.0);
  EXPECT_DOUBLE_EQ(global.GaugeValue("node.store.replicas"), 60.0);
  EXPECT_DOUBLE_EQ(global.GaugeValue("node.store.used_bytes"), used_bytes);
  EXPECT_DOUBLE_EQ(global.GaugeValue("past.stored_bytes"), used_bytes);
}

TEST(ObsScopeTest, JsonlTraceSinkWritesOneLinePerOperation) {
  const std::string path = ::testing::TempDir() + "/obs_trace_test.jsonl";
  PastConfig config;
  config.k = 3;
  TestDeployment deployment =
      BuildDeployment(/*num_nodes=*/30, /*capacity_per_node=*/10'000'000, config, /*seed=*/903);
  PastNetwork& network = *deployment.network;
  auto sink = std::make_shared<JsonlTraceSink>(path);
  ASSERT_TRUE(sink->ok());
  network.set_trace_sink(sink);

  PastClient client(network, deployment.node_ids.front(), 1ull << 40, 904);
  ClientInsertResult inserted = client.Insert("traced.bin", 2048);
  ASSERT_TRUE(inserted.stored);
  client.set_access_node(deployment.node_ids.back());
  LookupResult looked_up = client.Lookup(inserted.file_id);
  ASSERT_EQ(looked_up.status, LookupStatus::kFound);
  sink->Flush();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 2u);
  EXPECT_NE(lines.front().find("\"op\": \"insert\""), std::string::npos);
  EXPECT_NE(lines.front().find("\"status\": \"stored\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"op\": \"lookup\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"status\": \"found\""), std::string::npos);
  // Sequence numbers are monotone per run.
  EXPECT_NE(lines.front().find("\"seq\": 0"), std::string::npos);
  std::remove(path.c_str());
}

// Harness-level: the registry snapshot embedded in ExperimentResult must
// reproduce the legacy headline numbers, including the failure ratio.
TEST(ObsHarnessTest, RegistrySnapshotMatchesLegacyHeadlineNumbers) {
  ExperimentConfig config;
  config.num_nodes = 50;
  config.catalog_size = 0;  // auto: 800 files/node
  config.curve_samples = 10;
  config.seed = 905;
  ExperimentResult result = RunExperiment(config);

  const MetricsSnapshot& m = result.metrics;
  EXPECT_EQ(m.CounterValue("client.files_attempted"), result.files_attempted);
  EXPECT_EQ(m.CounterValue("client.files_stored"), result.files_inserted);
  EXPECT_EQ(m.CounterValue("client.files_failed"), result.files_failed);

  ASSERT_GT(m.CounterValue("client.files_attempted"), 0u);
  double registry_failure_ratio =
      static_cast<double>(m.CounterValue("client.files_failed")) /
      static_cast<double>(m.CounterValue("client.files_attempted"));
  EXPECT_DOUBLE_EQ(registry_failure_ratio, result.failure_ratio);

  // The insert-size histogram saw every attempted file.
  const HistogramSnapshot* sizes = m.FindHistogram("past.insert.file_size_bytes");
  ASSERT_NE(sizes, nullptr);
  EXPECT_GE(sizes->count, result.files_attempted);

  // Saturation run: replica diversion happened and was tallied at the
  // storage layer too.
  EXPECT_GT(m.GaugeValue("past.replicas.diverted"), 0.0);
  EXPECT_GT(m.GaugeValue("past.utilization"), 0.5);
}

TEST(ObsHarnessTest, ConfigValidateReportsHumanReadableErrors) {
  ExperimentConfig ok;
  ok.num_nodes = 50;
  EXPECT_TRUE(ok.Validate().empty());

  ExperimentConfig bad;
  bad.num_nodes = 0;
  bad.past.k = 40;  // exceeds what a leaf set of 32 can certify
  bad.past.policy.t_pri = 0.1;
  bad.past.policy.t_div = 0.5;  // t_div must not exceed t_pri
  bad.past.cache_mode = CacheMode::kGreedyDualSize;
  bad.past.cache_fraction_c = 0.0;
  bad.past.cache_insertion_cost_cap = -1.0;  // would silently disable the guard
  std::vector<std::string> errors = bad.Validate();
  EXPECT_GE(errors.size(), 5u);
  bool mentions_k = false;
  bool mentions_cap = false;
  for (const std::string& error : errors) {
    if (error.find("k") != std::string::npos && error.find("leaf") != std::string::npos) {
      mentions_k = true;
    }
    if (error.find("cache_insertion_cost_cap") != std::string::npos) {
      mentions_cap = true;
    }
  }
  EXPECT_TRUE(mentions_k);
  EXPECT_TRUE(mentions_cap);

  ExperimentConfig over_cap = ok;
  over_cap.past.cache_insertion_cost_cap = 1.5;
  EXPECT_EQ(over_cap.Validate().size(), 1u);

  EXPECT_THROW(RunExperiment(bad), std::invalid_argument);
}

}  // namespace
}  // namespace obs
}  // namespace past
