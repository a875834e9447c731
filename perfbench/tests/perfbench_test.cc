// Tests of the benchmark's tracing: the decorators and spans must not change
// what a run computes, and the span tree must nest. Build and run with
//
//   cmake -S perfbench -B .bench_build/perfbench-test -DPERFBENCH_TESTS=ON
//   cmake --build .bench_build/perfbench-test --target perfbench_test
//   .bench_build/perfbench-test/perfbench_test
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/past/client.h"
#include "src/past/past_network.h"

namespace perfbench {
namespace {

FillSpec SmallFill() {
  FillSpec spec;
  spec.nodes = 40;
  return spec;
}

LookupCacheSpec SmallLookupCache() {
  LookupCacheSpec spec;
  spec.nodes = 120;
  spec.references = 20'000;
  spec.catalog = 4'000;
  return spec;
}

DurableChurnSpec SmallDurableChurn() {
  DurableChurnSpec spec;
  spec.nodes = 80;
  spec.ops = 4'000;
  spec.clients = 8;
  spec.churn_every = 700;
  return spec;
}

RunOptions Options(uint64_t seed, bool trace) {
  RunOptions options;
  options.seed = seed;
  options.trace = trace;
  options.setup_reps = 1;
  options.keep_spans = trace;
  return options;
}

double LayerValue(const RunResult& r, const std::string& name) {
  for (const Metric& m : r.layers) {
    if (m.name == name) {
      return m.value;
    }
  }
  ADD_FAILURE() << "no layer metric " << name;
  return 0.0;
}

// Children lie inside their parent and carry the parent's op id; every span
// below a client-op root belongs to that op.
void ExpectNested(const RunResult& r) {
  ASSERT_FALSE(r.spans.empty());
  size_t children = 0;
  for (const SpanLog::Record& span : r.spans) {
    EXPECT_LE(span.start_ns, span.end_ns);
    if (span.parent < 0) {
      continue;
    }
    ++children;
    const SpanLog::Record& parent = r.spans[static_cast<size_t>(span.parent)];
    EXPECT_GE(span.start_ns, parent.start_ns);
    EXPECT_LE(span.end_ns, parent.end_ns);
    EXPECT_EQ(span.op, parent.op);
  }
  EXPECT_GT(children, 0u);
}

// The layer self times plus the unattributed remainder add up to the op time,
// and the remainder is a small share of it (the run itself checks the same
// against the root spans' own total and reports a violation as an error).
void ExpectSpansAccountForOpTime(const RunResult& r) {
  double op = LayerValue(r, "past.op_us");
  EXPECT_GT(op, 0.0);
  EXPECT_NEAR(LayerSelfTimeSum(r.layers), op, 1e-6 * op);
  EXPECT_GE(LayerValue(r, "past.unattributed_us"), 0.0);
  EXPECT_LE(LayerValue(r, "past.unattributed_us"), 0.1 * op);
  EXPECT_TRUE(r.errors.empty()) << r.errors.front();
}

void ExpectSameOutputs(const RunResult& plain, const RunResult& traced) {
  EXPECT_TRUE(plain.errors.empty()) << plain.errors.front();
  EXPECT_TRUE(traced.errors.empty()) << traced.errors.front();
  EXPECT_EQ(plain.witnesses, traced.witnesses);
  EXPECT_EQ(plain.final_utilization, traced.final_utilization);
  EXPECT_EQ(plain.inserts_refused, traced.inserts_refused);
  EXPECT_EQ(plain.lookup_hops, traced.lookup_hops);
  EXPECT_EQ(plain.ops, traced.ops);
  EXPECT_EQ(plain.failed, 0u);
}

TEST(PerfbenchTest, FillTracedMatchesUntraced) {
  RunResult plain = RunFill(SmallFill(), Options(3, false));
  RunResult traced = RunFill(SmallFill(), Options(3, true));
  ExpectSameOutputs(plain, traced);
  ExpectNested(traced);
  ExpectSpansAccountForOpTime(traced);
  EXPECT_GT(plain.inserts_refused, 0u) << "fill should end in saturation";
  EXPECT_EQ(LayerValue(traced, "net.deliver.lookup_request.count"), 0.0);
  EXPECT_EQ(LayerValue(traced, "storage.append.count"), 0.0);
}

TEST(PerfbenchTest, LookupCacheTracedMatchesUntraced) {
  RunResult plain = RunLookupCache(SmallLookupCache(), Options(5, false));
  RunResult traced = RunLookupCache(SmallLookupCache(), Options(5, true));
  ExpectSameOutputs(plain, traced);
  ExpectNested(traced);
  ExpectSpansAccountForOpTime(traced);
  EXPECT_GT(LayerValue(traced, "cache.hit_ratio"), 0.0);
  EXPECT_LT(LayerValue(traced, "cache.hit_ratio"), 1.0);
}

TEST(PerfbenchTest, DurableChurnTracedMatchesUntraced) {
  RunResult plain = RunDurableChurn(SmallDurableChurn(), Options(7, false));
  RunResult traced = RunDurableChurn(SmallDurableChurn(), Options(7, true));
  ExpectSameOutputs(plain, traced);
  ExpectNested(traced);
  ExpectSpansAccountForOpTime(traced);
  EXPECT_GT(LayerValue(traced, "storage.fsyncs_per_insert"), 0.0);
  EXPECT_GT(LayerValue(traced, "net.step.count"), 0.0);
  EXPECT_FALSE(traced.replay_ms.empty());
}

TEST(PerfbenchTest, ScaleChurnRepeatsItsOutputs) {
  ScaleChurnSpec spec;
  spec.nodes = 1'500;
  spec.jobs = 2;
  spec.epochs = 3;
  spec.inserts_per_epoch = 1'000;
  spec.lookups_per_epoch = 1'000;
  spec.crashes_per_epoch = 5;
  spec.joins_per_epoch = 5;
  spec.sweep_period = 2;
  RunOptions options = Options(11, false);
  options.setup_reps = 2;
  RunResult first = RunScaleChurn(spec, options);
  RunResult second = RunScaleChurn(spec, Options(11, true));
  EXPECT_TRUE(first.errors.empty()) << first.errors.front();
  EXPECT_TRUE(second.errors.empty()) << second.errors.front();
  EXPECT_EQ(first.witnesses, second.witnesses);
  EXPECT_GT(LayerValue(second, "sim.epoch_s"), 0.0);
}

// Known defect, found while defining the benchmark: a node brought back with
// PastNetwork::RejoinStorageNode can end up with a leaf set of one or two
// members. Other nodes still hold routing-table entries for its id from
// before it failed; once the id is installed again those entries count as
// live, so the join message is routed to the joining node itself and it
// copies its own (empty) leaf set. It then claims keys far from its id and
// lookups routed through it report not-found. durable-churn leaves rejoins
// out until this is fixed; enable this test with the fix.
TEST(PerfbenchTest, DISABLED_RejoinedNodeRebuildsItsLeafSet) {
  past::PastConfig config;
  config.enable_maintenance = true;
  past::PastryConfig pastry;
  past::PastNetwork net(config, pastry, 3);
  std::vector<past::NodeId> ids;
  for (int i = 0; i < 300; ++i) {
    ids.push_back(net.AddStorageNode(30'000'000));
  }
  past::PastClient client(net, ids[0], 1ULL << 40, 99);
  for (int f = 0; f < 3'000; ++f) {
    client.Insert("r" + std::to_string(f), 4'000);
  }
  size_t degenerate = 0;
  for (int round = 0; round < 40; ++round) {
    const past::NodeId& id = ids[static_cast<size_t>(10 + round)];
    net.FailStorageNode(id);
    for (int f = 0; f < 200; ++f) {
      client.Insert("s" + std::to_string(round) + "-" + std::to_string(f), 4'000);
    }
    ASSERT_TRUE(net.RejoinStorageNode(id, 30'000'000).ok);
    size_t members = net.overlay().node(id)->leaf_set().All().size();
    degenerate += members < static_cast<size_t>(pastry.leaf_set_size) ? 1 : 0;
  }
  EXPECT_EQ(degenerate, 0u);
}

}  // namespace
}  // namespace perfbench
