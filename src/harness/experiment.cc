#include "src/harness/experiment.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "src/common/logging.h"
#include "src/net/latency_model.h"

namespace past {
namespace {

constexpr uint64_t kUnlimitedQuota = 1ULL << 62;

// A generated trace plus the regional-failure injection point (SIZE_MAX for
// workloads without one).
struct TraceBundle {
  Trace trace;
  size_t failure_event_index = SIZE_MAX;
  uint32_t failed_cluster = 0;
};

TraceBundle MakeTrace(const ExperimentConfig& config) {
  uint32_t catalog = config.catalog_size != 0
                         ? config.catalog_size
                         : static_cast<uint32_t>(config.num_nodes * 800);
  TraceBundle bundle;
  if (config.adversarial) {
    AdversarialConfig ac;
    ac.kind = config.adversarial_kind;
    ac.catalog_size = catalog;
    ac.total_references = config.total_references;
    ac.seed = config.seed + 1;
    AdversarialTrace at = GenerateAdversarialTrace(ac);
    bundle.trace = std::move(at.trace);
    bundle.failure_event_index = at.failure_event_index;
    bundle.failed_cluster = at.failed_cluster;
    return bundle;
  }
  if (config.workload == WorkloadKind::kWeb) {
    WebTraceConfig wc;
    wc.catalog_size = catalog;
    wc.total_references = config.total_references;
    wc.seed = config.seed + 1;
    bundle.trace = GenerateWebTrace(wc);
    return bundle;
  }
  FilesystemTraceConfig fc;
  fc.catalog_size = catalog;
  fc.seed = config.seed + 1;
  bundle.trace = GenerateFilesystemTrace(fc);
  return bundle;
}

}  // namespace

std::vector<std::string> ExperimentConfig::Validate() const {
  std::vector<std::string> errors;
  auto fail = [&](const std::string& message) { errors.push_back(message); };

  if (num_nodes == 0) {
    fail("num_nodes must be positive");
  }
  for (std::string& error : ValidatePastConfig(past, pastry)) {
    fail(error);
  }
  if (demand_factor <= 0.0) {
    fail("demand_factor must be positive");
  }
  if (curve_samples == 0) {
    fail("curve_samples must be positive");
  }
  return errors;
}

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  std::vector<std::string> errors = config.Validate();
  if (!errors.empty()) {
    std::ostringstream joined;
    joined << "invalid ExperimentConfig:";
    for (const std::string& error : errors) {
      PAST_LOG(kError) << "ExperimentConfig: " << error;
      joined << " " << error << ";";
    }
    throw std::invalid_argument(joined.str());
  }

  ExperimentResult result;
  TraceBundle bundle = MakeTrace(config);
  Trace& trace = bundle.trace;

  // Bytes the trace will try to insert (first references only).
  uint64_t insert_bytes = 0;
  uint64_t insert_events = 0;
  for (const TraceEvent& e : trace.events) {
    if (e.op == TraceOp::kInsert) {
      insert_bytes += trace.file_sizes[e.file_index];
      ++insert_events;
    }
  }
  result.total_unique_bytes = insert_bytes;
  result.mean_file_size =
      insert_events == 0 ? 0.0
                         : static_cast<double>(insert_bytes) / static_cast<double>(insert_events);

  // Sample capacities from the Table 1 distribution and scale them so the
  // trace oversubscribes the system by the configured demand factor (the
  // paper's own scaling technique, section 5.1).
  Rng rng(config.seed);
  std::vector<uint64_t> raw = SampleCapacities(config.capacity, config.num_nodes, 1.0, rng);
  double raw_total = std::accumulate(raw.begin(), raw.end(), 0.0);
  double target_total =
      static_cast<double>(insert_bytes) * config.past.k / std::max(config.demand_factor, 1e-9);
  double scale = raw_total > 0.0 ? target_total / raw_total : 1.0;
  std::vector<uint64_t> capacities(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    capacities[i] = std::max<uint64_t>(1, static_cast<uint64_t>(raw[i] * scale));
  }

  // Build the PAST deployment with geographically clustered nodes.
  PastConfig past_config = config.past;
  past_config.enable_maintenance = false;  // no churn during trace replay
  PastNetwork network(past_config, config.pastry, config.seed);

  std::shared_ptr<obs::JsonlTraceSink> trace_sink;
  if (!config.trace_jsonl_path.empty()) {
    trace_sink = std::make_shared<obs::JsonlTraceSink>(config.trace_jsonl_path);
    if (!trace_sink->ok()) {
      PAST_LOG(kWarning) << "cannot open trace JSONL path " << config.trace_jsonl_path;
    }
    network.set_trace_sink(trace_sink);
  }

  uint32_t num_clusters = std::max<uint32_t>(trace.num_clusters, 1);
  std::vector<Coordinate> centers(num_clusters);
  for (auto& c : centers) {
    c = Coordinate{rng.NextDouble(), rng.NextDouble()};
  }
  std::vector<std::vector<NodeId>> nodes_by_cluster(num_clusters);
  for (size_t i = 0; i < config.num_nodes; ++i) {
    uint32_t cluster = static_cast<uint32_t>(i % num_clusters);
    NodeId id = network.AddStorageNodeNear(capacities[i], centers[cluster], 0.03);
    nodes_by_cluster[cluster].push_back(id);
  }
  result.total_capacity = network.total_capacity();

  // One PastClient per trace client, accessing a node in its cluster.
  std::vector<std::unique_ptr<PastClient>> clients;
  clients.reserve(trace.num_clients);
  for (uint32_t c = 0; c < trace.num_clients; ++c) {
    uint32_t cluster = trace.ClusterOf(c);
    const auto& pool = nodes_by_cluster[cluster];
    NodeId access = pool[c % pool.size()];
    clients.push_back(
        std::make_unique<PastClient>(network, access, kUnlimitedQuota, config.seed + 100 + c));
  }

  // Replay the trace.
  std::vector<FileId> file_ids(trace.file_sizes.size());
  std::vector<uint8_t> file_state(trace.file_sizes.size(), 0);  // 0=absent 1=stored 2=failed
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;
  uint64_t diverted_once = 0;
  uint64_t diverted_twice = 0;
  uint64_t diverted_thrice = 0;

  uint64_t window_lookups = 0;
  uint64_t window_hits = 0;
  uint64_t window_hops = 0;
  // Modeled fetch latency per successful lookup, for the policy benches'
  // percentile reporting (the replay itself runs at zero latency).
  const LatencyModel latency_model = LatencyModel::Lan();
  std::vector<double> lookup_latencies;

  size_t sample_every = std::max<uint64_t>(1, insert_events / std::max<size_t>(1, config.curve_samples));

  auto take_sample = [&]() {
    CurveSample s;
    s.utilization = network.utilization();
    s.inserts_attempted = attempted;
    s.inserts_failed = failed;
    s.cumulative_failure_ratio =
        attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
    s.diverted_once = diverted_once;
    s.diverted_twice = diverted_twice;
    s.diverted_thrice = diverted_thrice;
    PastNetwork::ReplicaCensus census = network.CountReplicas();
    s.replicas_stored = census.replicas;
    s.replicas_diverted = census.diverted;
    s.window_lookups = window_lookups;
    s.window_hit_rate = window_lookups == 0
                            ? 0.0
                            : static_cast<double>(window_hits) / static_cast<double>(window_lookups);
    s.window_avg_hops = window_lookups == 0
                            ? 0.0
                            : static_cast<double>(window_hops) / static_cast<double>(window_lookups);
    result.curve.push_back(s);
    window_lookups = 0;
    window_hits = 0;
    window_hops = 0;
  };

  for (size_t event_index = 0; event_index < trace.events.size(); ++event_index) {
    const TraceEvent& event = trace.events[event_index];
    if (event_index == bundle.failure_event_index) {
      // Correlated regional failure: half of the doomed cluster's nodes die
      // at once (cached copies in the region die with them). Clients keep
      // their access nodes — the generator guarantees no post-failure
      // requests originate in the failed cluster.
      const auto& doomed = nodes_by_cluster[bundle.failed_cluster % num_clusters];
      for (size_t i = 0; i < doomed.size() / 2; ++i) {
        network.FailStorageNode(doomed[i]);
      }
    }
    PastClient& client = *clients[event.client];
    if (event.op == TraceOp::kInsert) {
      uint64_t size = trace.file_sizes[event.file_index];
      ClientInsertResult r = client.Insert("f" + std::to_string(event.file_index), size);
      ++attempted;
      if (r.stored) {
        ++succeeded;
        file_ids[event.file_index] = r.file_id;
        file_state[event.file_index] = 1;
        if (r.diversions == 1) {
          ++diverted_once;
        } else if (r.diversions == 2) {
          ++diverted_twice;
        } else if (r.diversions >= 3) {
          ++diverted_thrice;
        }
      } else {
        ++failed;
        file_state[event.file_index] = 2;
        result.failures.push_back({network.utilization(), size});
      }
      if (attempted % sample_every == 0) {
        take_sample();
      }
    } else {
      if (file_state[event.file_index] != 1) {
        continue;  // never stored (failed insert); nothing to look up
      }
      LookupResult r = client.Lookup(file_ids[event.file_index]);
      if (r.status == LookupStatus::kFound) {
        ++window_lookups;
        window_hops += static_cast<uint64_t>(r.hops);
        if (r.served_from_cache) {
          ++window_hits;
        }
        lookup_latencies.push_back(
            latency_model.FetchLatencyMs(r.hops, r.distance, r.file_size));
      }
    }
  }
  take_sample();

  // Headline summary.
  result.files_attempted = attempted;
  result.files_inserted = succeeded;
  result.files_failed = failed;
  result.success_ratio =
      attempted == 0 ? 0.0 : static_cast<double>(succeeded) / static_cast<double>(attempted);
  result.failure_ratio =
      attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  uint64_t diverted_any = diverted_once + diverted_twice + diverted_thrice;
  result.file_diversion_ratio =
      succeeded == 0 ? 0.0 : static_cast<double>(diverted_any) / static_cast<double>(succeeded);
  PastNetwork::ReplicaCensus census = network.CountReplicas();
  result.replica_diversion_ratio =
      census.replicas == 0
          ? 0.0
          : static_cast<double>(census.diverted) / static_cast<double>(census.replicas);
  result.final_utilization = network.utilization();

  result.metrics = network.SnapshotMetrics();
  const uint64_t found = result.metrics.CounterValue("past.lookup.found");
  const obs::HistogramSnapshot* hops = result.metrics.FindHistogram("past.lookup.hops");
  result.lookups = found;
  result.global_cache_hit_rate =
      found == 0 ? 0.0
                 : static_cast<double>(result.metrics.CounterValue("past.lookup.cache_hits")) /
                       static_cast<double>(found);
  result.avg_lookup_hops =
      found == 0 || hops == nullptr ? 0.0 : hops->sum / static_cast<double>(found);
  result.lookup_latency_p50_ms = FloorRankPercentile(lookup_latencies, 0.50);
  result.lookup_latency_p95_ms = FloorRankPercentile(lookup_latencies, 0.95);

  if (trace_sink != nullptr) {
    trace_sink->Flush();
  }
  if (!config.metrics_json_path.empty() &&
      !obs::WriteMetricsJson(config.metrics_json_path, result.metrics)) {
    PAST_LOG(kError) << "failed to write metrics JSON to " << config.metrics_json_path;
  }
  return result;
}

double FloorRankPercentile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  size_t idx = static_cast<size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

TestDeployment BuildDeployment(size_t num_nodes, uint64_t capacity_per_node,
                               const PastConfig& config, uint64_t seed,
                               StorageEnv* durable_env, const DurableOptions& durable_opts) {
  TestDeployment deployment;
  PastryConfig pastry_config;
  deployment.network = std::make_unique<PastNetwork>(config, pastry_config, seed);
  if (durable_env != nullptr) {
    deployment.network->UseDurableStore(*durable_env, durable_opts);
  }
  for (size_t i = 0; i < num_nodes; ++i) {
    deployment.node_ids.push_back(deployment.network->AddStorageNode(capacity_per_node));
  }
  return deployment;
}

}  // namespace past
