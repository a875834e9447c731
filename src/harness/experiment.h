// Experiment harness: builds a PAST network over an emulated topology, plays
// a workload trace through it, and samples the metrics the paper's tables
// and figures report (paper section 5).
#ifndef SRC_HARNESS_EXPERIMENT_H_
#define SRC_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/past/client.h"
#include "src/past/past_network.h"
#include "src/workload/adversarial.h"
#include "src/workload/capacity.h"
#include "src/workload/trace.h"
#include "src/workload/trace_generator.h"

namespace past {

enum class WorkloadKind { kWeb, kFilesystem };

struct ExperimentConfig {
  // Overlay scale. The paper uses 2250 nodes; the default is scaled down so
  // every bench finishes in minutes on one core (pass --paper-scale to the
  // bench binaries for full size).
  size_t num_nodes = 500;

  // The deployment's PAST parameters (k, thresholds, diversion switches,
  // placement, caching) and Pastry parameters (b, leaf-set size), at the
  // paper's defaults. RunExperiment builds the network from these with
  // past.enable_maintenance forced off: a trace replay has no churn.
  PastConfig past;
  PastryConfig pastry;

  // Adversarial workload: when `adversarial` is set, the trace comes from
  // GenerateAdversarialTrace(adversarial_kind) instead of `workload`, and a
  // kRegionalFailure trace fails half the nodes of the doomed cluster at
  // the failure point mid-replay.
  bool adversarial = false;
  AdversarialKind adversarial_kind = AdversarialKind::kFlashCrowd;

  // Workload. catalog_size == 0 auto-sizes to num_nodes * 800, preserving the
  // paper's files-per-node ratio (1,863,055 uniques / 2250 nodes ≈ 830),
  // which is what controls how tightly the system can pack at saturation.
  WorkloadKind workload = WorkloadKind::kWeb;
  uint32_t catalog_size = 0;
  uint64_t total_references = 0;  // 0 = insert-only
  CapacityDistribution capacity = CapacityD1();
  // Demand factor: sum(file sizes) * k / total capacity. The NLANR trace
  // oversubscribes the paper's d1 deployment by ~1.53x, which is what drives
  // the system into saturation by the end of the trace.
  double demand_factor = 1.53;

  uint64_t seed = 42;
  // Number of points sampled along the utilization axis.
  size_t curve_samples = 120;

  // Observability outputs. When non-empty, `metrics_json_path` receives the
  // full aggregated registry (network + per-node scopes) as JSON at end of
  // run, and `trace_jsonl_path` receives one JSON line per insert / lookup /
  // reclaim / maintenance operation.
  std::string metrics_json_path;
  std::string trace_jsonl_path;

  // Checks parameter consistency (ValidatePastConfig over past and pastry,
  // plus the scale knobs). Returns human-readable errors; empty means the
  // config is runnable. RunExperiment and the bench binaries call this
  // before building anything.
  std::vector<std::string> Validate() const;
};

// One point of a utilization-indexed curve (Figures 2-5, 8).
struct CurveSample {
  double utilization = 0.0;
  uint64_t inserts_attempted = 0;  // unique files attempted so far
  uint64_t inserts_failed = 0;
  double cumulative_failure_ratio = 0.0;
  // File diversions among successful inserts so far (Figure 4).
  uint64_t diverted_once = 0;
  uint64_t diverted_twice = 0;
  uint64_t diverted_thrice = 0;
  // Replica diversion census (Figure 5).
  uint64_t replicas_stored = 0;
  uint64_t replicas_diverted = 0;
  // Caching metrics measured over the window since the last sample (Fig 8).
  double window_hit_rate = 0.0;
  double window_avg_hops = 0.0;
  uint64_t window_lookups = 0;
};

// A failed insert, for the size-vs-utilization scatter (Figures 6-7).
struct FailureRecord {
  double utilization;
  uint64_t size;
};

struct ExperimentResult {
  // Headline numbers (Tables 2-4).
  uint64_t files_attempted = 0;
  uint64_t files_inserted = 0;
  uint64_t files_failed = 0;
  double success_ratio = 0.0;
  double failure_ratio = 0.0;
  // Fraction of successful inserts that required >= 1 file diversion.
  double file_diversion_ratio = 0.0;
  // Fraction of stored replicas that are diverted (end-of-run census).
  double replica_diversion_ratio = 0.0;
  double final_utilization = 0.0;

  // Lookup/caching summary (Figure 8 runs).
  uint64_t lookups = 0;
  double global_cache_hit_rate = 0.0;
  double avg_lookup_hops = 0.0;
  // Modeled fetch latency percentiles over successful lookups (LAN model
  // applied to each lookup's hops/distance/size; 0 when there were none).
  double lookup_latency_p50_ms = 0.0;
  double lookup_latency_p95_ms = 0.0;

  std::vector<CurveSample> curve;
  std::vector<FailureRecord> failures;

  // Workload facts for reporting.
  uint64_t total_unique_bytes = 0;
  uint64_t total_capacity = 0;
  double mean_file_size = 0.0;

  // Full aggregated metrics registry at end of run (network scope, client
  // tallies, per-node store/cache scopes, transport stats). The headline
  // numbers above are derivable from it; it is also what --metrics-json
  // dumps.
  obs::MetricsSnapshot metrics;
};

// Runs a full experiment: build network, generate trace, auto-scale node
// capacities to the configured demand factor, play the trace, sample curves.
// Throws std::invalid_argument when config.Validate() reports errors.
ExperimentResult RunExperiment(const ExperimentConfig& config);

// The floor-rank q-quantile of `values`: the element at index
// floor(q * (n - 1)) in sorted order, or 0 when `values` is empty. Reorders
// `values` (std::nth_element).
double FloorRankPercentile(std::vector<double>& values, double q);

// Fixture shared by examples and tests that want a live network without the
// full harness: builds a small PAST deployment with clustered nodes.
struct TestDeployment {
  std::unique_ptr<PastNetwork> network;
  std::vector<NodeId> node_ids;
};
// With `durable_env` set, every node gets a write-ahead-journaled store in
// that env (PastNetwork::UseDurableStore is applied before the first node is
// added); the env must outlive the deployment.
TestDeployment BuildDeployment(size_t num_nodes, uint64_t capacity_per_node,
                               const PastConfig& config, uint64_t seed,
                               StorageEnv* durable_env = nullptr,
                               const DurableOptions& durable_opts = {});

}  // namespace past

#endif  // SRC_HARNESS_EXPERIMENT_H_
