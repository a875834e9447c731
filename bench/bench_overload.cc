// Open-loop overload benchmark for the async operation engine.
//
// A Poisson arrival process submits lookups (with a slice of inserts) through
// PastClient::Begin* against a deployment over the SimTransport with the LAN
// latency model, sweeping the offered load. Because arrivals are open-loop —
// scheduled on the virtual clock independently of completions — raising the
// rate past the service capacity piles up in-flight operations, and the
// reported p50/p95/p99 completion latencies (virtual ms, submit to callback)
// show the queueing curve. The engine's peak in-flight gauge at the top load
// level must clear 100 concurrent operations; the binary exits nonzero
// otherwise, so CI smoke runs double as a concurrency regression check.
//
// Usage:
//   bench_overload [--smoke] [--nodes N] [--ops M] [--seed S]
//                  [--metrics-json out.json]
//
// --metrics-json dumps the final load level's merged metrics registry,
// including the engine.* instruments and latency percentile gauges, for
// tools/validate_metrics_json.py.
#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "bench/bench_common.h"
#include "src/net/latency_model.h"
#include "src/past/client.h"
#include "src/past/ops/op_engine.h"
#include "src/sim/event_queue.h"

namespace past {
namespace {

struct LevelResult {
  double offered_ops_per_sec = 0.0;
  size_t submitted = 0;
  size_t completed = 0;
  uint64_t peak_in_flight = 0;
  double virtual_ms = 0.0;  // virtual time spent in the measured window
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

// One load level on a fresh deployment: warm a catalog, then submit `ops`
// operations with exponential inter-arrival gaps (mean 1000/lambda ms) and
// drive the virtual clock until every completion callback has run.
LevelResult RunLevel(double lambda_ops_per_sec, size_t ops, size_t num_nodes,
                     size_t catalog, uint64_t seed, const std::string& metrics_json) {
  PastConfig config;
  config.cache_mode = CacheMode::kGreedyDualSize;
  config.enable_maintenance = false;
  PastryConfig pastry_config;
  PastNetwork network(config, pastry_config, seed);
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < num_nodes; ++i) {
    nodes.push_back(network.AddStorageNode(1ull << 30));
  }
  EventQueue queue;
  SimTransport::Options options;
  options.latency = LatencyModel::Lan();
  options.seed = seed;
  network.UseSimTransport(queue, options);

  PastClient client(network, nodes[0], 1ull << 50, seed + 1);
  std::vector<FileId> files;
  for (size_t i = 0; i < catalog; ++i) {
    ClientInsertResult r = client.Insert("warm-" + std::to_string(i), 10'000);
    if (r.stored) {
      files.push_back(r.file_id);
    }
  }

  LevelResult level;
  level.offered_ops_per_sec = lambda_ops_per_sec;
  Rng rng(seed + 2);
  std::vector<double> latencies;
  latencies.reserve(ops);
  SimTime start = queue.now();
  double mean_gap_ms = 1000.0 / lambda_ops_per_sec;

  // Each arrival submits one op and schedules the next arrival; completions
  // only record latency, so the arrival process never throttles (open loop).
  std::function<void()> arrive;
  auto schedule_next = [&] {
    double u = 1.0 - rng.NextDouble();  // (0, 1]: log stays finite
    auto gap = static_cast<SimTime>(std::llround(-std::log(u) * mean_gap_ms));
    queue.ScheduleAfter(gap, arrive);
  };
  arrive = [&] {
    SimTime submit_at = queue.now();
    auto on_done = [&latencies, &level, &queue, submit_at] {
      latencies.push_back(static_cast<double>(queue.now() - submit_at));
      ++level.completed;
    };
    client.set_access_node(nodes[rng.NextBelow(nodes.size())]);
    if (level.submitted % 10 == 9) {  // 10% inserts keep the write path hot
      client.BeginInsert("load-" + std::to_string(level.submitted), 10'000,
                         [on_done](const ClientInsertResult&) { on_done(); });
    } else {
      client.BeginLookup(files[rng.NextBelow(files.size())],
                         [on_done](const LookupResult&) { on_done(); });
    }
    ++level.submitted;
    if (level.submitted < ops) {
      schedule_next();
    }
  };
  schedule_next();
  while (level.completed < ops && queue.Step()) {
  }

  level.peak_in_flight = network.engine().peak_in_flight();
  level.virtual_ms = static_cast<double>(queue.now() - start);
  std::sort(latencies.begin(), latencies.end());
  double sum = 0.0;
  for (double v : latencies) {
    sum += v;
  }
  level.mean_ms = latencies.empty() ? 0.0 : sum / static_cast<double>(latencies.size());
  level.p50_ms = Percentile(latencies, 0.50);
  level.p95_ms = Percentile(latencies, 0.95);
  level.p99_ms = Percentile(latencies, 0.99);

  if (!metrics_json.empty()) {
    // Export the percentiles as gauges so the dump is self-describing.
    obs::MetricsRegistry& metrics = network.metrics();
    metrics.GetGauge("engine.op_latency_p50_ms").Set(level.p50_ms);
    metrics.GetGauge("engine.op_latency_p95_ms").Set(level.p95_ms);
    metrics.GetGauge("engine.op_latency_p99_ms").Set(level.p99_ms);
    if (!obs::WriteMetricsJson(metrics_json, network.SnapshotMetrics())) {
      std::fprintf(stderr, "error: cannot write %s\n", metrics_json.c_str());
    }
  }
  return level;
}

}  // namespace
}  // namespace past

int main(int argc, char** argv) {
  using namespace past;
  BenchStopwatch stopwatch;
  CommandLine cli(argc, argv);
  bool smoke = cli.Has("--smoke");
  size_t nodes = static_cast<size_t>(cli.GetInt("--nodes", smoke ? 60 : 200));
  size_t ops = static_cast<size_t>(cli.GetInt("--ops", smoke ? 600 : 2000));
  uint64_t seed = static_cast<uint64_t>(cli.GetInt("--seed", 42));
  std::string metrics_json = cli.GetString("--metrics-json", "");
  cli.ExitOnUnknownFlags();
  size_t catalog = smoke ? 100 : 200;

  std::vector<double> loads = smoke ? std::vector<double>{500.0, 20'000.0}
                                    : std::vector<double>{100.0, 500.0, 2'000.0,
                                                          10'000.0, 50'000.0};

  std::printf("# bench_overload (%s mode): %zu nodes, %zu ops/level, open-loop Poisson\n",
              smoke ? "smoke" : "full", nodes, ops);
  std::printf("%-14s %-10s %-12s %10s %10s %10s %10s\n", "offered/s", "completed",
              "peak-inflight", "mean ms", "p50 ms", "p95 ms", "p99 ms");

  uint64_t max_peak = 0;
  for (size_t i = 0; i < loads.size(); ++i) {
    // Only the top (most concurrent) level dumps metrics.
    bool last = i + 1 == loads.size();
    LevelResult r = RunLevel(loads[i], ops, nodes, catalog, seed,
                             last ? metrics_json : std::string());
    max_peak = std::max(max_peak, r.peak_in_flight);
    std::printf("%-14.0f %-10zu %-12llu %10.1f %10.1f %10.1f %10.1f\n",
                r.offered_ops_per_sec, r.completed,
                static_cast<unsigned long long>(r.peak_in_flight), r.mean_ms, r.p50_ms,
                r.p95_ms, r.p99_ms);
  }

  std::printf("# max peak in-flight %llu (require >= 100)\n",
              static_cast<unsigned long long>(max_peak));
  if (!metrics_json.empty()) {
    std::printf("# wrote %s\n", metrics_json.c_str());
  }
  PrintBenchFooter(stopwatch);
  return max_peak >= 100 ? 0 : 3;
}
