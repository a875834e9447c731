// The benchmark's four workloads, each a closed loop on one process driven
// through the public API (PastClient, PastNetwork, ScaleEngine):
//
//   fill           saturation fill with the web trace, insert-only, inline
//   lookup-cache   the 2,250-node overlay under a Zipf reference stream, GDS
//   durable-churn  WAL-backed stores, SimTransport, 16 clients, node failures
//   scale-churn    the sharded epoch engine with crashes, joins and a sweep
//
// A run's work is fixed by its spec (sized from --seconds), so every
// deterministic output repeats exactly for a given seed; only timings vary.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/span_log.h"

namespace perfbench {

// The paper's web-trace set-up: d1 capacities, k=5, l=32, b=4,
// t_pri=0.1, t_div=0.05.
struct FillSpec {
  size_t nodes = 300;  // 800 files per node, capacity at demand factor 1.53
};

struct LookupCacheSpec {
  size_t nodes = 2250;
  uint64_t references = 500'000;
  uint32_t catalog = 100'000;  // Zipf(0.8) over it gives ~17% inserts
};

struct DurableChurnSpec {
  size_t nodes = 500;
  uint64_t ops = 120'000;
  size_t clients = 16;
  uint64_t churn_every = 3'000;  // ops between node failures
};

struct ScaleChurnSpec {
  size_t nodes = 20'000;
  size_t jobs = 1;
  size_t epochs = 6;
  size_t inserts_per_epoch = 40'000;
  size_t lookups_per_epoch = 40'000;
  size_t crashes_per_epoch = 20;
  size_t joins_per_epoch = 20;
  size_t sweep_period = 6;  // one sweep, in the last epoch
};

struct RunOptions {
  uint64_t seed = 1;
  bool trace = false;
  int setup_reps = 1;       // setups per run; setup_s is their median
  bool keep_spans = false;  // keep the span tree (tests)
};

// One named per-layer or summary figure.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::vector<std::string> errors;  // correctness-check failures
  uint64_t attempted = 0;           // client ops submitted
  uint64_t failed = 0;              // ops with an erroneous outcome

  std::vector<double> setup_s;  // one per setup repetition
  double phase_s = 0.0;         // wall time of the timed phase
  uint64_t ops = 0;             // client ops completed in the timed phase

  std::vector<double> insert_us, lookup_us, reclaim_us;
  std::vector<double> replay_ms;  // journal replay per failed node

  uint64_t inserts = 0;
  uint64_t inserts_refused = 0;   // no space after every re-salted attempt
  uint64_t ops_unsuccessful = 0;  // refused inserts + failed ops
  double final_utilization = 0.0;
  uint64_t lookups_found = 0;
  uint64_t lookup_hops = 0;
  uint64_t cache_hits = 0;  // lookups served from a route-side cache
  double peak_rss_mb = 0.0;

  // Deterministic witnesses compared between traced and untraced runs.
  std::vector<std::pair<std::string, double>> witnesses;

  std::vector<Metric> layers;                // traced run only
  std::vector<SpanLog::Record> spans;        // keep_spans only
};

RunResult RunFill(const FillSpec& spec, const RunOptions& options);
RunResult RunLookupCache(const LookupCacheSpec& spec, const RunOptions& options);
RunResult RunDurableChurn(const DurableChurnSpec& spec, const RunOptions& options);
RunResult RunScaleChurn(const ScaleChurnSpec& spec, const RunOptions& options);

// Sum of the per-op self-time layers plus past.unattributed_us; equals
// past.op_us up to rounding.
double LayerSelfTimeSum(const std::vector<Metric>& layers);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
