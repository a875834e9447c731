#include "perfbench/src/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>

#include "perfbench/src/timing_layers.h"
#include "src/crypto/sha1.h"
#include "src/crypto/smartcard.h"
#include "src/net/latency_model.h"
#include "src/net/sim_transport.h"
#include "src/past/client.h"
#include "src/past/past_network.h"
#include "src/sim/event_queue.h"
#include "src/sim/scale_engine.h"
#include "src/storage/storage_env.h"
#include "src/workload/capacity.h"
#include "src/workload/trace_generator.h"

namespace perfbench {
namespace {

using past::ClientInsertResult;
using past::FileId;
using past::LookupResult;
using past::MessageType;
using past::NodeId;
using past::PastClient;
using past::PastNetwork;
using past::ReclaimResult;
using past::Trace;
using past::TraceEvent;
using past::TraceOp;

constexpr uint64_t kUnlimitedQuota = 1ULL << 62;
constexpr uint32_t kFilesPerNode = 800;  // the paper's files-per-node ratio
constexpr double kFillDemandFactor = 1.53;
// lookup-cache: capacity for 1/0.75 of the inserted bytes, so most of the
// space stays free for the route-side caches.
constexpr double kLookupDemandFactor = 0.75;
constexpr size_t kFillCheckLookups = 1'000;
// durable-churn caps web-trace file sizes so every file fits well under
// t_div of the smallest d1 node: the run refuses no insert.
constexpr uint64_t kChurnMaxFileBytes = 128 * 1024;
// Cap on replayed Route / certificate calls per traced run.
constexpr size_t kReplayCap = 20'000;
// scale-churn's determinism twin: a small run of the same seed, at one job
// and at the run's job count.
constexpr size_t kScaleTwinNodes = 2'000;
constexpr size_t kScaleTwinOps = 5'000;

// Message types a PAST workload can send with the cooperative cache off.
constexpr MessageType kWorkloadTypes[] = {
    MessageType::kInsertRequest,  MessageType::kStoreReplica, MessageType::kDivertRequest,
    MessageType::kInstallPointer, MessageType::kAck,          MessageType::kLookupRequest,
    MessageType::kFetchReply,     MessageType::kReclaimRequest, MessageType::kRepairStore,
    MessageType::kRepairPointer,
};

struct LayerName {
  std::string name;
  std::string unit;
};

const std::vector<LayerName>& LayerTable() {
  static const std::vector<LayerName> table = [] {
    std::vector<LayerName> t = {
        {"past.insert.attempts_mean", "count"},
        {"past.file_diversion_ratio", "ratio"},
        {"past.replica_diversion_ratio", "ratio"},
        {"past.op_us", "us"},
        {"past.client.self_us", "us"},
        {"past.membership.self_us", "us"},
        {"past.unattributed_us", "us"},
        {"net.msgs_per_op.insert", "count"},
        {"net.msgs_per_op.lookup", "count"},
        {"net.msgs_per_op.reclaim", "count"},
    };
    for (MessageType type : kWorkloadTypes) {
      std::string base = std::string("net.deliver.") + past::MessageTypeName(type);
      t.push_back({base + ".count", "count"});
      t.push_back({base + ".self_us", "us"});
    }
    std::vector<LayerName> rest = {
        {"net.step.count", "count"},
        {"net.step_us", "us"},
        {"net.step.self_us", "us"},
        {"net.timer.self_us", "us"},
        {"net.inflight_peak", "count"},
        {"pastry.hops_per_op", "count"},
        {"pastry.route_us", "us"},
        {"pastry.join_us", "us"},
        {"crypto.cert_issue_us", "us"},
        {"crypto.cert_verify_us", "us"},
        {"crypto.issue_per_insert", "count"},
        {"crypto.verify_per_insert", "count"},
        {"storage.append.count", "count"},
        {"storage.append.bytes", "B"},
        {"storage.append.us", "us"},
        {"storage.fsync.count", "count"},
        {"storage.fsync.us", "us"},
        {"storage.read.bytes", "B"},
        {"storage.read.us", "us"},
        {"storage.rename.count", "count"},
        {"storage.rename.us", "us"},
        {"storage.other.us", "us"},
        {"storage.fsyncs_per_insert", "count"},
        {"storage.wal_bytes_per_user_byte", "ratio"},
        {"storage.replay_ms", "ms"},
        {"storage.replay.records_bytes", "B"},
        {"cache.hit_ratio", "ratio"},
        {"cache.insertions_per_op", "count"},
        {"cache.evictions_per_op", "count"},
        {"workload.trace_gen_s", "s"},
        {"sim.build_s", "s"},
        {"sim.epoch_s", "s"},
        {"sim.epoch_sweep_s", "s"},
        {"sim.epoch_nosweep_s", "s"},
        {"sim.route_hops_per_op", "count"},
        {"obs.trace_overhead", "ratio"},
    };
    t.insert(t.end(), rest.begin(), rest.end());
    return t;
  }();
  return table;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Micros(int64_t ns) { return static_cast<double>(ns) / 1e3; }
double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

// The paper's storage parameters: k=5, t_pri=0.1, t_div=0.05 (the Pastry
// defaults supply b=4, l=32).
past::PastConfig PaperConfig() {
  past::PastConfig config;
  config.k = 5;
  config.policy.t_pri = 0.1;
  config.policy.t_div = 0.05;
  return config;
}

// Counts an op with an erroneous outcome; the first few are kept as errors.
void NoteFailure(RunResult& result, const std::string& what) {
  ++result.failed;
  if (result.errors.size() < 8) {
    result.errors.push_back(what);
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Collects measured per-layer values by name; Finish() lays them out in the
// canonical order, with 0 for every layer the workload bypasses.
class LayerSheet {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }

  std::vector<Metric> Finish() const {
    std::vector<Metric> out;
    for (const LayerName& layer : LayerTable()) {
      auto it = values_.find(layer.name);
      out.push_back(Metric{layer.name, it == values_.end() ? 0.0 : it->second, layer.unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

// Everything a traced message-level run records besides the span totals.
struct Probe {
  explicit Probe(bool keep_spans) : log(keep_spans) {}

  SpanLog log;
  TimingTransport* transport = nullptr;  // owned by the network
  std::unique_ptr<TimingEnv> env;
  // Phase-start baselines.
  uint64_t hops0 = 0;
  uint64_t append_bytes0 = 0;
  uint64_t read_bytes0 = 0;
  // Inserts seen by the run, for the certificate replay.
  struct NamedInsert {
    std::string name;
    uint64_t size;
  };
  std::vector<NamedInsert> inserts;
  uint64_t insert_seen = 0;
  size_t insert_stride = 1;

  void NoteInsert(const std::string& name, uint64_t size) {
    if (insert_seen++ % insert_stride == 0) {
      inserts.push_back({name, size});
    }
  }
};

// Installs `inner` as the network's transport, wrapped for timing when
// tracing. Both runs take this path, so they differ only in the decorator.
void InstallTransport(PastNetwork& net, std::unique_ptr<past::Transport> inner, Probe* probe,
                      size_t expected_routed) {
  if (probe == nullptr) {
    net.set_transport(std::move(inner));
    return;
  }
  size_t stride = std::max<size_t>(1, expected_routed / kReplayCap);
  auto timing = std::make_unique<TimingTransport>(std::move(inner), probe->log, stride);
  probe->transport = timing.get();
  net.set_transport(std::move(timing));
}

void BeginPhase(Probe* probe, PastNetwork& net) {
  if (probe == nullptr) {
    return;
  }
  probe->log.ResetTotals();
  probe->hops0 = net.overlay().stats().hops();
  if (probe->env != nullptr) {
    probe->append_bytes0 = probe->env->append_bytes();
    probe->read_bytes0 = probe->env->read_bytes();
  }
}

// Counter deltas of the network-wide metrics across the timed phase.
struct CacheDelta {
  uint64_t insertions = 0;
  uint64_t evictions = 0;
};

CacheDelta CacheCounters(const PastNetwork& net) {
  past::obs::MetricsSnapshot snap = net.SnapshotMetrics();
  return {snap.CounterValue("node.cache.insertions"), snap.CounterValue("node.cache.evictions")};
}

// The span-derived part of the sheet. `measured_ns` is the time the spans
// must account for: the sum of client-op times for a blocking loop, the
// phase's wall time for the event-driven one.
void FillSpanLayers(const Probe& probe, int64_t measured_ns, uint64_t ops,
                    const std::array<uint64_t, 4>& ops_by_kind, LayerSheet& sheet,
                    RunResult& result) {
  const SpanLog& log = probe.log;
  if (log.op_mismatches() != 0) {
    result.errors.push_back("spans nested under a span of another op: " +
                            std::to_string(log.op_mismatches()));
  }
  double per_op = ops == 0 ? 0.0 : 1.0 / static_cast<double>(ops);
  auto us_per_op = [&](int64_t ns) { return Micros(ns) * per_op; };

  // The self times must add up to the root spans' durations, which the log
  // sums separately, and the root spans must fit in the time measured around
  // them with little to spare: what is left is past.unattributed_us.
  int64_t all_self = 0;
  for (size_t k = 0; k < kSpanKindCount; ++k) {
    all_self += log.self_ns(static_cast<SpanKind>(k));
  }
  if (all_self != log.root_ns()) {
    result.errors.push_back("span self times sum to " + std::to_string(all_self) +
                            " ns, root spans cover " + std::to_string(log.root_ns()) + " ns");
  }
  int64_t unattributed_ns = measured_ns - log.root_ns();
  if (unattributed_ns < 0 || unattributed_ns > measured_ns / 10) {
    result.errors.push_back("root spans cover " + std::to_string(log.root_ns()) + " ns of " +
                            std::to_string(measured_ns) + " ns measured");
  }
  sheet.Set("past.op_us", us_per_op(measured_ns));
  sheet.Set("past.client.self_us",
            us_per_op(log.self_ns(SpanKind::kClientInsert) + log.self_ns(SpanKind::kClientLookup) +
                      log.self_ns(SpanKind::kClientReclaim)));
  sheet.Set("past.membership.self_us", us_per_op(log.self_ns(SpanKind::kMembership)));
  sheet.Set("past.unattributed_us", us_per_op(unattributed_ns));

  const TimingTransport& t = *probe.transport;
  sheet.Set("net.msgs_per_op.insert",
            Ratio(static_cast<double>(t.sends_by_kind(kOpInsert)), ops_by_kind[kOpInsert]));
  sheet.Set("net.msgs_per_op.lookup",
            Ratio(static_cast<double>(t.sends_by_kind(kOpLookup)), ops_by_kind[kOpLookup]));
  sheet.Set("net.msgs_per_op.reclaim",
            Ratio(static_cast<double>(t.sends_by_kind(kOpReclaim)), ops_by_kind[kOpReclaim]));
  for (MessageType type : kWorkloadTypes) {
    std::string base = std::string("net.deliver.") + past::MessageTypeName(type);
    sheet.Set(base + ".count", static_cast<double>(log.count(DeliverKind(type))));
    sheet.Set(base + ".self_us", us_per_op(log.self_ns(DeliverKind(type))));
  }
  uint64_t steps = log.count(SpanKind::kStep);
  sheet.Set("net.step.count", static_cast<double>(steps));
  sheet.Set("net.step_us", steps == 0 ? 0.0 : Micros(log.self_ns(SpanKind::kStep)) / steps);
  sheet.Set("net.step.self_us", us_per_op(log.self_ns(SpanKind::kStep)));
  sheet.Set("net.timer.self_us", us_per_op(log.self_ns(SpanKind::kTimer)));

  sheet.Set("storage.append.count", static_cast<double>(log.count(SpanKind::kStorageAppend)));
  sheet.Set("storage.append.us", us_per_op(log.self_ns(SpanKind::kStorageAppend)));
  sheet.Set("storage.fsync.count", static_cast<double>(log.count(SpanKind::kStorageFsync)));
  sheet.Set("storage.fsync.us", us_per_op(log.self_ns(SpanKind::kStorageFsync)));
  sheet.Set("storage.read.us", us_per_op(log.self_ns(SpanKind::kStorageRead)));
  sheet.Set("storage.rename.count", static_cast<double>(log.count(SpanKind::kStorageRename)));
  sheet.Set("storage.rename.us", us_per_op(log.self_ns(SpanKind::kStorageRename)));
  sheet.Set("storage.other.us", us_per_op(log.self_ns(SpanKind::kStorageOther)));
  if (probe.env != nullptr) {
    sheet.Set("storage.append.bytes",
              static_cast<double>(probe.env->append_bytes() - probe.append_bytes0));
    sheet.Set("storage.read.bytes",
              static_cast<double>(probe.env->read_bytes() - probe.read_bytes0));
  }
}

// Replays PastryNetwork::Route on the recorded (origin, key) pairs and the
// smartcard certificate path on the recorded insert names.
void ReplayTimers(const Probe& probe, PastNetwork& net, uint64_t seed, LayerSheet& sheet,
                  RunResult& result) {
  const std::vector<RoutePair>& pairs = probe.transport->pairs();
  if (!pairs.empty()) {
    int64_t t0 = NowNs();
    for (const RoutePair& p : pairs) {
      net.overlay().Route(p.origin, p.key);
    }
    sheet.Set("pastry.route_us", Micros(NowNs() - t0) / static_cast<double>(pairs.size()));
  }
  if (!probe.inserts.empty()) {
    past::Rng rng(seed ^ 0x5eedULL);
    past::Smartcard card(rng, kUnlimitedQuota);
    std::vector<past::FileCertificate> certs;
    certs.reserve(probe.inserts.size());
    uint64_t date = 0;
    int64_t t0 = NowNs();
    for (const Probe::NamedInsert& ins : probe.inserts) {
      certs.push_back(*card.IssueFileCertificate(ins.name, date, ins.size, net.config().k,
                                                 past::Sha1::Hash(ins.name), date));
      ++date;
    }
    int64_t t1 = NowNs();
    uint64_t verified = 0;
    for (const past::FileCertificate& cert : certs) {
      verified += cert.VerifySignature() ? 1 : 0;
    }
    int64_t t2 = NowNs();
    double n = static_cast<double>(certs.size());
    sheet.Set("crypto.cert_issue_us", Micros(t1 - t0) / n);
    sheet.Set("crypto.cert_verify_us", Micros(t2 - t1) / n);
    if (verified != certs.size()) {
      result.errors.push_back("replayed certificates failed verification");
    }
  }
}

// ---------------------------------------------------------------------------
// Trace-driven deployments: fill and lookup-cache.

struct TraceDeployment {
  Trace trace;
  std::unique_ptr<PastNetwork> net;
  std::vector<std::unique_ptr<PastClient>> clients;
  double trace_gen_s = 0.0;
  double join_us = 0.0;  // mean AddStorageNode time
};

struct TraceSetup {
  size_t nodes;
  uint32_t catalog;
  uint64_t references;  // 0 = insert-only
  double demand_factor;
  past::CacheMode cache;
};

// Mirrors the paper's experiment set-up: web trace, Table 1 d1 capacities
// scaled to the demand factor, nodes clustered around the trace's client
// clusters, one client per trace client.
TraceDeployment BuildTraceDeployment(const TraceSetup& setup, uint64_t seed) {
  TraceDeployment d;
  int64_t t0 = NowNs();
  past::WebTraceConfig wc;
  wc.catalog_size = setup.catalog;
  wc.total_references = setup.references;
  wc.seed = seed + 1;
  d.trace = past::GenerateWebTrace(wc);
  d.trace_gen_s = Seconds(NowNs() - t0);

  uint64_t insert_bytes = 0;
  for (const TraceEvent& e : d.trace.events) {
    if (e.op == TraceOp::kInsert) {
      insert_bytes += d.trace.file_sizes[e.file_index];
    }
  }
  past::PastConfig config = PaperConfig();
  config.cache_mode = setup.cache;
  config.cache_fraction_c = 1.0;
  config.enable_maintenance = false;  // no churn during a trace replay

  past::Rng rng(seed);
  std::vector<uint64_t> raw = past::SampleCapacities(past::CapacityD1(), setup.nodes, 1.0, rng);
  double raw_total = std::accumulate(raw.begin(), raw.end(), 0.0);
  double target = static_cast<double>(insert_bytes) * config.k / setup.demand_factor;
  double scale = raw_total > 0.0 ? target / raw_total : 1.0;

  d.net = std::make_unique<PastNetwork>(config, past::PastryConfig{}, seed);
  uint32_t clusters = std::max<uint32_t>(d.trace.num_clusters, 1);
  std::vector<past::Coordinate> centers(clusters);
  for (past::Coordinate& c : centers) {
    c = past::Coordinate{rng.NextDouble(), rng.NextDouble()};
  }
  std::vector<std::vector<NodeId>> by_cluster(clusters);
  int64_t joins_ns = 0;
  for (size_t i = 0; i < setup.nodes; ++i) {
    uint64_t capacity = std::max<uint64_t>(1, static_cast<uint64_t>(raw[i] * scale));
    uint32_t cluster = static_cast<uint32_t>(i % clusters);
    int64_t j0 = NowNs();
    NodeId id = d.net->AddStorageNodeNear(capacity, centers[cluster], 0.03);
    joins_ns += NowNs() - j0;
    by_cluster[cluster].push_back(id);
  }
  d.join_us = Micros(joins_ns) / static_cast<double>(setup.nodes);

  for (uint32_t c = 0; c < d.trace.num_clients; ++c) {
    const std::vector<NodeId>& pool = by_cluster[d.trace.ClusterOf(c)];
    d.clients.push_back(std::make_unique<PastClient>(*d.net, pool[c % pool.size()],
                                                     kUnlimitedQuota, seed + 100 + c));
  }
  return d;
}

TraceDeployment SetUpRepeatedly(const TraceSetup& setup, const RunOptions& options,
                                RunResult& result) {
  TraceDeployment d;
  for (int rep = 0; rep < std::max(1, options.setup_reps); ++rep) {
    // Free the previous copy, clients before their network, before timing.
    d.clients.clear();
    d.net.reset();
    int64_t t0 = NowNs();
    d = BuildTraceDeployment(setup, options.seed);
    result.setup_s.push_back(Seconds(NowNs() - t0));
  }
  return d;
}

void AddCommonWitnesses(const PastNetwork& net, RunResult& result) {
  const past::TransportStats& stats = net.overlay().stats();
  result.witnesses.push_back({"final_utilization", result.final_utilization});
  result.witnesses.push_back({"inserts_refused", static_cast<double>(result.inserts_refused)});
  result.witnesses.push_back({"ops_unsuccessful", static_cast<double>(result.ops_unsuccessful)});
  result.witnesses.push_back({"lookup_hops", static_cast<double>(result.lookup_hops)});
  result.witnesses.push_back({"hops", static_cast<double>(stats.hops())});
  result.witnesses.push_back({"messages", static_cast<double>(stats.messages())});
  result.witnesses.push_back({"sends", static_cast<double>(stats.total_sends())});
  result.witnesses.push_back({"rpcs", static_cast<double>(stats.rpcs())});
}

// fill and lookup-cache: replay the trace, one blocking op at a time.
RunResult RunTraceReplay(const TraceSetup& setup, size_t check_lookups,
                         const RunOptions& options) {
  RunResult result;
  // Declared before the deployment, whose transport refers to it.
  std::unique_ptr<Probe> probe;
  if (options.trace) {
    probe = std::make_unique<Probe>(options.keep_spans);
  }
  TraceDeployment d = SetUpRepeatedly(setup, options, result);
  PastNetwork& net = *d.net;
  const Trace& trace = d.trace;
  if (probe) {
    probe->insert_stride = std::max<size_t>(1, trace.file_sizes.size() / kReplayCap);
  }
  InstallTransport(net, std::make_unique<past::InlineTransport>(&net.overlay().stats()),
                   probe.get(), trace.events.size());
  SpanLog* log = probe ? &probe->log : nullptr;

  std::vector<std::string> names(trace.file_sizes.size());
  for (size_t i = 0; i < names.size(); ++i) {
    names[i] = "f" + std::to_string(i);
  }
  std::vector<FileId> ids(trace.file_sizes.size());
  std::vector<uint8_t> stored(trace.file_sizes.size(), 0);
  std::vector<FileId> stored_ids;
  uint64_t attempts_total = 0;
  uint64_t diverted_files = 0;
  uint64_t cache_hits = 0;
  std::array<uint64_t, 4> ops_by_kind{};
  int64_t measured_ns = 0;
  uint64_t seq = 0;
  CacheDelta cache0 = CacheCounters(net);

  BeginPhase(probe.get(), net);
  int64_t phase0 = NowNs();
  for (const TraceEvent& event : trace.events) {
    PastClient& client = *d.clients[event.client];
    uint64_t size = trace.file_sizes[event.file_index];
    if (event.op == TraceOp::kInsert) {
      uint64_t op = MakeOpId(++seq, kOpInsert);
      int64_t t0 = NowNs();
      ClientInsertResult r;
      {
        SpanScope span(log, SpanKind::kClientInsert, op);
        r = client.Insert(names[event.file_index], size);
      }
      int64_t dt = NowNs() - t0;
      measured_ns += dt;
      result.insert_us.push_back(Micros(dt));
      ++ops_by_kind[kOpInsert];
      ++result.inserts;
      attempts_total += static_cast<uint64_t>(r.attempts);
      if (probe) {
        probe->NoteInsert(names[event.file_index], size);
      }
      if (r.stored) {
        stored[event.file_index] = 1;
        ids[event.file_index] = r.file_id;
        stored_ids.push_back(r.file_id);
        diverted_files += r.diversions > 0 ? 1 : 0;
      } else if (r.last_status == past::InsertStatus::kNoSpace) {
        ++result.inserts_refused;
      } else {
        NoteFailure(result, std::string("insert ended ") + past::ToString(r.last_status));
      }
    } else {
      if (stored[event.file_index] == 0) {
        continue;  // never stored: nothing to look up
      }
      uint64_t op = MakeOpId(++seq, kOpLookup);
      int64_t t0 = NowNs();
      LookupResult r;
      {
        SpanScope span(log, SpanKind::kClientLookup, op);
        r = client.Lookup(ids[event.file_index]);
      }
      int64_t dt = NowNs() - t0;
      measured_ns += dt;
      result.lookup_us.push_back(Micros(dt));
      ++ops_by_kind[kOpLookup];
      if (r.found() && r.file_size == size) {
        ++result.lookups_found;
        result.lookup_hops += static_cast<uint64_t>(r.hops);
        cache_hits += r.served_from_cache ? 1 : 0;
      } else {
        NoteFailure(result, std::string("lookup of a stored file: ") + past::ToString(r.status));
      }
    }
  }
  result.phase_s = Seconds(NowNs() - phase0);
  result.ops = ops_by_kind[kOpInsert] + ops_by_kind[kOpLookup];
  result.attempted = result.ops;
  result.ops_unsuccessful = result.inserts_refused + result.failed;
  result.final_utilization = net.utilization();
  CacheDelta cache1 = CacheCounters(net);
  past::PastNetwork::ReplicaCensus census = net.CountReplicas();
  AddCommonWitnesses(net, result);
  result.cache_hits = cache_hits;
  result.witnesses.push_back({"cache_hits", static_cast<double>(cache_hits)});
  result.witnesses.push_back({"replicas", static_cast<double>(census.replicas)});
  result.witnesses.push_back({"diverted", static_cast<double>(census.diverted)});

  LayerSheet sheet;
  if (probe) {
    FillSpanLayers(*probe, measured_ns, result.ops, ops_by_kind, sheet, result);
    sheet.Set("net.inflight_peak",
              net.SnapshotMetrics().GaugeValue("engine.ops_in_flight_peak"));
    sheet.Set("pastry.hops_per_op",
              Ratio(static_cast<double>(net.overlay().stats().hops() - probe->hops0),
                    static_cast<double>(result.ops)));
  }
  sheet.Set("past.insert.attempts_mean", Ratio(attempts_total, result.inserts));
  sheet.Set("past.file_diversion_ratio", Ratio(diverted_files, stored_ids.size()));
  sheet.Set("past.replica_diversion_ratio", Ratio(census.diverted, census.replicas));
  sheet.Set("pastry.join_us", d.join_us);
  sheet.Set("crypto.issue_per_insert", Ratio(attempts_total, result.inserts));
  if (probe) {
    sheet.Set("crypto.verify_per_insert",
              Ratio(probe->log.count(DeliverKind(MessageType::kInsertRequest)), result.inserts));
  }
  sheet.Set("cache.hit_ratio", Ratio(cache_hits, result.lookups_found));
  sheet.Set("cache.insertions_per_op",
            Ratio(static_cast<double>(cache1.insertions - cache0.insertions), result.ops));
  sheet.Set("cache.evictions_per_op",
            Ratio(static_cast<double>(cache1.evictions - cache0.evictions), result.ops));
  sheet.Set("workload.trace_gen_s", d.trace_gen_s);
  if (probe) {
    result.spans = probe->log.spans();
  }

  // Correctness: the paper's storage invariant over every stored file, and a
  // retrieval sample that must return each file's inserted size.
  size_t violations = net.CountStorageInvariantViolations(stored_ids);
  if (violations != 0) {
    result.errors.push_back("storage invariant violations: " + std::to_string(violations));
  }
  if (check_lookups > 0) {
    size_t stride = std::max<size_t>(1, trace.file_sizes.size() / check_lookups);
    for (size_t f = 0; f < trace.file_sizes.size(); f += stride) {
      if (stored[f] == 0) {
        continue;
      }
      LookupResult r = d.clients[0]->Lookup(ids[f]);
      if (!r.found() || r.file_size != trace.file_sizes[f]) {
        result.errors.push_back("stored file f" + std::to_string(f) + " not retrievable");
        break;
      }
    }
  }

  if (probe) {
    ReplayTimers(*probe, net, options.seed, sheet, result);
    result.layers = sheet.Finish();
  }
  result.peak_rss_mb = PeakRssMb();
  return result;
}

// ---------------------------------------------------------------------------
// durable-churn

class ChurnDriver {
 public:
  ChurnDriver(const DurableChurnSpec& spec, const RunOptions& options, RunResult& result)
      : spec_(spec), options_(options), result_(result) {}

  void Run();

 private:
  struct ClientState {
    std::unique_ptr<PastClient> client;
    std::vector<uint32_t> owned;  // live files this client inserted
  };

  void SetUp();
  void Submit(size_t c);
  void SubmitInsert(size_t c);
  void SubmitLookup(size_t c, uint32_t file);
  void SubmitReclaim(size_t c, uint32_t file);
  void Churn();
  void ReplayJournals(LayerSheet& sheet);
  void AddLive(uint32_t file, size_t owner);
  void RemoveLive(uint32_t file);
  void Check();

  const DurableChurnSpec& spec_;
  const RunOptions& options_;
  RunResult& result_;

  std::unique_ptr<Probe> probe_;
  SpanLog* log_ = nullptr;
  // The journals' disk: FaultEnv with no fault armed, an in-memory file
  // system, so the run measures the WAL's own work and not the device.
  std::unique_ptr<past::FaultEnv> disk_;
  past::StorageEnv* env_ = nullptr;  // disk_, or its timing decorator
  std::unique_ptr<past::EventQueue> queue_;
  std::unique_ptr<PastNetwork> net_;
  std::vector<ClientState> clients_;
  std::vector<NodeId> node_ids_;
  std::vector<uint64_t> capacities_;
  std::vector<uint64_t> sizes_;  // file catalog
  std::vector<std::string> names_;
  std::vector<FileId> ids_;
  double trace_gen_s_ = 0.0;
  double join_us_ = 0.0;

  // Live (acked, unreclaimed, not being reclaimed) files with O(1) removal.
  std::vector<uint32_t> live_;
  std::vector<int64_t> live_pos_;
  std::vector<int64_t> owned_pos_;
  std::vector<uint32_t> owner_;
  std::vector<uint32_t> lookups_in_flight_;

  std::vector<size_t> ready_;
  uint64_t seq_ = 0;
  uint64_t next_file_ = 0;
  uint64_t submitted_ = 0;
  uint64_t completed_ = 0;
  uint64_t in_flight_ = 0;
  std::array<uint64_t, 4> ops_by_kind_{};
  uint64_t attempts_total_ = 0;
  uint64_t diverted_files_ = 0;
  uint64_t stored_files_ = 0;
  uint64_t user_bytes_ = 0;  // bytes of acknowledged inserts times k
  past::Rng rng_{1};

  // Failed nodes (indices into node_ids_) with what they held when they died.
  struct FailedNode {
    size_t index;
    size_t replicas;
    size_t pointers;
  };
  std::vector<FailedNode> failed_nodes_;
  std::vector<uint8_t> node_down_;
};

void ChurnDriver::SetUp() {
  clients_.clear();
  net_.reset();
  queue_.reset();
  disk_.reset();

  int64_t t0 = NowNs();
  past::WebTraceConfig wc;
  wc.catalog_size = static_cast<uint32_t>(spec_.ops);  // at most one insert per op
  wc.max_size = kChurnMaxFileBytes;
  wc.seed = options_.seed + 1;
  Trace trace = past::GenerateWebTrace(wc);
  sizes_ = std::move(trace.file_sizes);
  trace_gen_s_ = Seconds(NowNs() - t0);
  names_.resize(sizes_.size());
  for (size_t i = 0; i < names_.size(); ++i) {
    names_[i] = "d" + std::to_string(i);
  }

  // Table 1's d1 capacities as they are (2-51 MB): every capped file stays
  // under t_div of a node's free space, so no insert is refused.
  past::Rng rng(options_.seed);
  capacities_ = past::SampleCapacities(past::CapacityD1(), spec_.nodes, 1.0, rng);

  past::PastConfig config = PaperConfig();
  config.enable_maintenance = true;
  net_ = std::make_unique<PastNetwork>(config, past::PastryConfig{}, options_.seed);
  disk_ = std::make_unique<past::FaultEnv>();
  env_ = disk_.get();
  if (probe_ != nullptr) {
    probe_->env = std::make_unique<TimingEnv>(*disk_, probe_->log);
    env_ = probe_->env.get();
  }
  net_->UseDurableStore(*env_, past::DurableOptions{});
  node_ids_.clear();
  int64_t joins_ns = 0;
  for (size_t i = 0; i < spec_.nodes; ++i) {
    int64_t j0 = NowNs();
    node_ids_.push_back(net_->AddStorageNode(capacities_[i]));
    joins_ns += NowNs() - j0;
  }
  join_us_ = Micros(joins_ns) / static_cast<double>(spec_.nodes);

  queue_ = std::make_unique<past::EventQueue>();
  past::SimTransport::Options sim;
  sim.latency = past::LatencyModel::Lan();
  sim.seed = options_.seed + 7;
  InstallTransport(*net_,
                   std::make_unique<past::SimTransport>(*queue_, sim, &net_->overlay().stats()),
                   probe_.get(), spec_.ops);
  for (size_t c = 0; c < spec_.clients; ++c) {
    ClientState state;
    state.client = std::make_unique<PastClient>(*net_, node_ids_[c], kUnlimitedQuota,
                                                options_.seed + 100 + c);
    clients_.push_back(std::move(state));
  }
}

void ChurnDriver::AddLive(uint32_t file, size_t owner) {
  live_pos_[file] = static_cast<int64_t>(live_.size());
  live_.push_back(file);
  std::vector<uint32_t>& owned = clients_[owner].owned;
  owned_pos_[file] = static_cast<int64_t>(owned.size());
  owned.push_back(file);
  owner_[file] = static_cast<uint32_t>(owner);
}

void ChurnDriver::RemoveLive(uint32_t file) {
  auto erase = [&](std::vector<uint32_t>& v, std::vector<int64_t>& pos) {
    int64_t at = pos[file];
    uint32_t last = v.back();
    v[static_cast<size_t>(at)] = last;
    pos[last] = at;
    v.pop_back();
    pos[file] = -1;
  };
  erase(live_, live_pos_);
  erase(clients_[owner_[file]].owned, owned_pos_);
}

void ChurnDriver::Submit(size_t c) {
  double u = rng_.NextDouble();
  if (u < 0.40 || live_.empty()) {
    SubmitInsert(c);
    return;
  }
  if (u >= 0.85) {
    // Reclaim one of this client's own files that no lookup is reading.
    const std::vector<uint32_t>& owned = clients_[c].owned;
    for (int tries = 0; tries < 4 && !owned.empty(); ++tries) {
      uint32_t file = owned[rng_.NextBelow(owned.size())];
      if (lookups_in_flight_[file] == 0) {
        SubmitReclaim(c, file);
        return;
      }
    }
  }
  SubmitLookup(c, live_[rng_.NextBelow(live_.size())]);
}

void ChurnDriver::SubmitInsert(size_t c) {
  uint32_t file = static_cast<uint32_t>(next_file_++);
  uint64_t op = MakeOpId(++seq_, kOpInsert);
  int64_t t0 = NowNs();
  ++in_flight_;
  SpanScope span(log_, SpanKind::kClientInsert, op);
  if (probe_) {
    probe_->NoteInsert(names_[file], sizes_[file]);
  }
  clients_[c].client->BeginInsert(
      names_[file], sizes_[file], [this, c, file, t0](const ClientInsertResult& r) {
        result_.insert_us.push_back(Micros(NowNs() - t0));
        ++ops_by_kind_[kOpInsert];
        ++result_.inserts;
        attempts_total_ += static_cast<uint64_t>(r.attempts);
        if (r.stored) {
          ids_[file] = r.file_id;
          ++stored_files_;
          diverted_files_ += r.diversions > 0 ? 1 : 0;
          user_bytes_ += sizes_[file] * 5;
          AddLive(file, c);
        } else if (r.last_status == past::InsertStatus::kNoSpace) {
          ++result_.inserts_refused;
        } else {
          NoteFailure(result_, std::string("insert ended ") + past::ToString(r.last_status));
        }
        --in_flight_;
        ++completed_;
        ready_.push_back(c);
      });
}

void ChurnDriver::SubmitLookup(size_t c, uint32_t file) {
  uint64_t op = MakeOpId(++seq_, kOpLookup);
  int64_t t0 = NowNs();
  ++in_flight_;
  ++lookups_in_flight_[file];
  SpanScope span(log_, SpanKind::kClientLookup, op);
  clients_[c].client->BeginLookup(ids_[file], [this, c, file, t0](const LookupResult& r) {
    result_.lookup_us.push_back(Micros(NowNs() - t0));
    ++ops_by_kind_[kOpLookup];
    --lookups_in_flight_[file];
    if (r.found() && r.file_size == sizes_[file]) {
      ++result_.lookups_found;
      result_.lookup_hops += static_cast<uint64_t>(r.hops);
    } else {
      NoteFailure(result_, std::string("lookup of a live file: ") + past::ToString(r.status));
    }
    --in_flight_;
    ++completed_;
    ready_.push_back(c);
  });
}

void ChurnDriver::SubmitReclaim(size_t c, uint32_t file) {
  RemoveLive(file);
  uint64_t op = MakeOpId(++seq_, kOpReclaim);
  int64_t t0 = NowNs();
  ++in_flight_;
  SpanScope span(log_, SpanKind::kClientReclaim, op);
  clients_[c].client->BeginReclaim(ids_[file], [this, c, t0](const ReclaimResult& r) {
    result_.reclaim_us.push_back(Micros(NowNs() - t0));
    ++ops_by_kind_[kOpReclaim];
    if (r.status != past::ReclaimStatus::kReclaimed) {
      NoteFailure(result_, std::string("reclaim by owner: ") + past::ToString(r.status));
    }
    --in_flight_;
    ++completed_;
    ready_.push_back(c);
  });
}

// At a quiescent point: fail one node that no client uses. Its journal
// stays in the environment for the recovery replay after the run.
// RejoinStorageNode is not called: see the known defect in NOTES.md.
void ChurnDriver::Churn() {
  size_t victim = 0;
  do {
    victim = spec_.clients + rng_.NextBelow(node_ids_.size() - spec_.clients);
  } while (node_down_[victim] != 0);
  const past::NodeStore& store = net_->storage_node(node_ids_[victim])->store();
  failed_nodes_.push_back(FailedNode{victim, store.replica_count(), store.pointers().size()});
  node_down_[victim] = 1;
  SpanScope span(log_, SpanKind::kMembership, MakeOpId(++seq_, kOpNone));
  net_->FailStorageNode(node_ids_[victim]);
}

// Replays every failed node's journal into a fresh store: it must hold
// exactly what the node held when it died.
void ChurnDriver::ReplayJournals(LayerSheet& sheet) {
  uint64_t read0 = probe_ != nullptr ? probe_->env->read_bytes() : 0;
  for (const FailedNode& failed : failed_nodes_) {
    past::NodeStore store(capacities_[failed.index]);
    int64_t t0 = NowNs();
    bool ok = store.RecoverDurable(*env_, node_ids_[failed.index].ToHex(),
                                   past::DurableOptions{});
    result_.replay_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!ok || store.replica_count() != failed.replicas ||
        store.pointers().size() != failed.pointers) {
      result_.errors.push_back("journal replay of a failed node lost state");
    }
  }
  if (probe_ != nullptr && !failed_nodes_.empty()) {
    sheet.Set("storage.replay_ms", Mean(result_.replay_ms));
    sheet.Set("storage.replay.records_bytes",
              static_cast<double>(probe_->env->read_bytes() - read0) /
                  static_cast<double>(failed_nodes_.size()));
  }
}

void ChurnDriver::Check() {
  // Reconcile, then every acknowledged, unreclaimed file must be found.
  // Lookups run inline for speed; the stores and overlay are the ones the
  // run left behind.
  net_->MaintenanceSweep();
  net_->set_transport(nullptr);
  uint64_t lost = 0;
  std::vector<FileId> live_ids;
  for (uint32_t file : live_) {
    live_ids.push_back(ids_[file]);
    LookupResult r = clients_[0].client->Lookup(ids_[file]);
    if (!r.found() || r.file_size != sizes_[file]) {
      ++lost;
    }
  }
  if (lost != 0) {
    result_.errors.push_back("acknowledged files lost: " + std::to_string(lost));
  }
  size_t violations = net_->CountStorageInvariantViolations(live_ids);
  if (violations != 0) {
    result_.errors.push_back("storage invariant violations: " + std::to_string(violations));
  }
}

void ChurnDriver::Run() {
  if (options_.trace) {
    probe_ = std::make_unique<Probe>(options_.keep_spans);
    probe_->insert_stride = std::max<size_t>(1, spec_.ops / 2 / kReplayCap);
    log_ = &probe_->log;
  }
  for (int rep = 0; rep < std::max(1, options_.setup_reps); ++rep) {
    int64_t t0 = NowNs();
    SetUp();
    result_.setup_s.push_back(Seconds(NowNs() - t0));
  }
  size_t files = sizes_.size();
  ids_.assign(files, FileId());
  live_pos_.assign(files, -1);
  owned_pos_.assign(files, -1);
  owner_.assign(files, 0);
  lookups_in_flight_.assign(files, 0);
  node_down_.assign(node_ids_.size(), 0);
  rng_ = past::Rng(options_.seed + 2);
  for (size_t c = 0; c < spec_.clients; ++c) {
    ready_.push_back(c);
  }

  BeginPhase(probe_.get(), *net_);
  int64_t phase0 = NowNs();
  uint64_t next_churn = spec_.churn_every;
  // The closed loop: ops are submitted only from here, never from inside a
  // completion callback (under InlineTransport a callback runs inside
  // Begin*, so resubmitting there would recurse).
  while (completed_ < spec_.ops) {
    if (submitted_ >= next_churn) {
      if (in_flight_ == 0) {
        Churn();
        next_churn += spec_.churn_every;
      }
    } else {
      while (!ready_.empty() && submitted_ < spec_.ops && submitted_ < next_churn) {
        size_t c = ready_.back();
        ready_.pop_back();
        ++submitted_;
        Submit(c);
      }
    }
    if (in_flight_ > 0 && !clients_[0].client->Poll()) {
      NoteFailure(result_, "transport idle with ops in flight");
      break;
    }
  }
  int64_t phase_ns = NowNs() - phase0;
  result_.phase_s = Seconds(phase_ns);
  result_.ops = completed_;
  result_.attempted = submitted_;
  result_.ops_unsuccessful = result_.inserts_refused + result_.failed;
  result_.final_utilization = net_->utilization();
  AddCommonWitnesses(*net_, result_);
  result_.witnesses.push_back({"stored_files", static_cast<double>(stored_files_)});

  LayerSheet sheet;
  if (probe_) {
    FillSpanLayers(*probe_, phase_ns, completed_, ops_by_kind_, sheet, result_);
    sheet.Set("net.inflight_peak",
              net_->SnapshotMetrics().GaugeValue("engine.ops_in_flight_peak"));
    sheet.Set("pastry.hops_per_op",
              Ratio(static_cast<double>(net_->overlay().stats().hops() - probe_->hops0),
                    static_cast<double>(completed_)));
    sheet.Set("crypto.verify_per_insert",
              Ratio(probe_->log.count(DeliverKind(MessageType::kInsertRequest)), result_.inserts));
    sheet.Set("storage.fsyncs_per_insert",
              Ratio(probe_->log.count(SpanKind::kStorageFsync), result_.inserts));
    sheet.Set("storage.wal_bytes_per_user_byte",
              Ratio(static_cast<double>(probe_->env->append_bytes() - probe_->append_bytes0),
                    static_cast<double>(user_bytes_)));
    result_.spans = probe_->log.spans();
  }
  past::PastNetwork::ReplicaCensus census = net_->CountReplicas();
  sheet.Set("past.insert.attempts_mean", Ratio(attempts_total_, result_.inserts));
  sheet.Set("past.file_diversion_ratio", Ratio(diverted_files_, stored_files_));
  sheet.Set("past.replica_diversion_ratio", Ratio(census.diverted, census.replicas));
  sheet.Set("pastry.join_us", join_us_);
  sheet.Set("crypto.issue_per_insert", Ratio(attempts_total_, result_.inserts));
  sheet.Set("workload.trace_gen_s", trace_gen_s_);

  if (probe_) {
    // Route replay before the final checks swap the transport out.
    ReplayTimers(*probe_, *net_, options_.seed, sheet, result_);
  }
  ReplayJournals(sheet);
  if (probe_) {
    result_.layers = sheet.Finish();
  }
  Check();
  result_.peak_rss_mb = PeakRssMb();
}

}  // namespace

double LayerSelfTimeSum(const std::vector<Metric>& layers) {
  auto ends_with = [](const std::string& s, const std::string& tail) {
    return s.size() >= tail.size() && s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
  };
  double sum = 0.0;
  for (const Metric& m : layers) {
    bool self_time = m.name == "past.client.self_us" || m.name == "past.membership.self_us" ||
                     m.name == "past.unattributed_us" || m.name == "net.step.self_us" ||
                     m.name == "net.timer.self_us" ||
                     (m.name.rfind("net.deliver.", 0) == 0 && ends_with(m.name, ".self_us")) ||
                     (m.name.rfind("storage.", 0) == 0 && ends_with(m.name, ".us"));
    if (self_time) {
      sum += m.value;
    }
  }
  return sum;
}

RunResult RunFill(const FillSpec& spec, const RunOptions& options) {
  TraceSetup setup{spec.nodes, static_cast<uint32_t>(spec.nodes * kFilesPerNode), 0,
                   kFillDemandFactor, past::CacheMode::kNone};
  return RunTraceReplay(setup, kFillCheckLookups, options);
}

RunResult RunLookupCache(const LookupCacheSpec& spec, const RunOptions& options) {
  TraceSetup setup{spec.nodes, spec.catalog, spec.references, kLookupDemandFactor,
                   past::CacheMode::kGreedyDualSize};
  return RunTraceReplay(setup, 0, options);
}

RunResult RunDurableChurn(const DurableChurnSpec& spec, const RunOptions& options) {
  RunResult result;
  ChurnDriver driver(spec, options, result);
  driver.Run();
  return result;
}

RunResult RunScaleChurn(const ScaleChurnSpec& spec, const RunOptions& options) {
  RunResult result;
  past::ScaleConfig config;
  config.nodes = spec.nodes;
  config.jobs = spec.jobs;
  config.seed = options.seed;
  config.epochs = spec.epochs;
  config.inserts_per_epoch = spec.inserts_per_epoch;
  config.lookups_per_epoch = spec.lookups_per_epoch;
  config.crashes_per_epoch = spec.crashes_per_epoch;
  config.joins_per_epoch = spec.joins_per_epoch;
  config.sweep_period = spec.sweep_period;

  std::unique_ptr<past::ScaleEngine> engine;
  std::string build_fingerprint;
  for (int rep = 0; rep < std::max(1, options.setup_reps); ++rep) {
    engine.reset();
    int64_t t0 = NowNs();
    engine = std::make_unique<past::ScaleEngine>(config);
    engine->BuildNetwork();
    result.setup_s.push_back(Seconds(NowNs() - t0));
    // Every rebuild from the same seed must reach the same state.
    std::string fingerprint = engine->StateFingerprint();
    if (rep > 0 && fingerprint != build_fingerprint) {
      result.errors.push_back("build fingerprint differs between set-ups of one seed");
    }
    build_fingerprint = fingerprint;
  }

  std::vector<double> sweep_s, plain_s;
  int64_t epochs_ns = 0;
  for (size_t e = 0; e < spec.epochs; ++e) {
    int64_t t0 = NowNs();
    past::ScaleEpochStats stats = engine->RunEpoch();
    int64_t dt = NowNs() - t0;
    epochs_ns += dt;
    (stats.swept ? sweep_s : plain_s).push_back(Seconds(dt));
  }
  result.phase_s = Seconds(epochs_ns);
  past::ScaleReport report = engine->BuildReport();
  result.ops = report.inserts + report.lookups;
  result.attempted = result.ops;
  result.inserts = report.inserts;
  result.inserts_refused = report.inserts - report.inserts_stored;
  result.lookups_found = report.lookups_found;
  result.failed = report.lookups - report.lookups_found;
  result.ops_unsuccessful = result.inserts_refused + result.failed;
  result.final_utilization = report.utilization;
  result.witnesses.push_back({"final_utilization", report.utilization});
  result.witnesses.push_back({"route_hops", static_cast<double>(report.route_hops)});
  result.witnesses.push_back({"inserts_stored", static_cast<double>(report.inserts_stored)});
  result.witnesses.push_back({"lookups_found", static_cast<double>(report.lookups_found)});
  if (result.failed != 0) {
    result.errors.push_back("lookups of committed files not found: " +
                            std::to_string(result.failed));
  }

  // Per-shard route accounting must sum to the canonical op-order totals.
  past::TransportStats sum;
  for (const past::TransportStats& shard : engine->shard_stats()) {
    sum.MergeFrom(shard);
  }
  const past::TransportStats& totals = engine->op_route_totals();
  if (sum.hops() != totals.hops() || sum.messages() != totals.messages() ||
      sum.rpcs() != totals.rpcs() || sum.bytes_sent() != totals.bytes_sent() ||
      sum.total_sends() != totals.total_sends()) {
    result.errors.push_back("shard_stats() sum differs from op_route_totals()");
  }

  // The epoch loop must be deterministic: a small twin of this run, built
  // from the same seed, must reach the same state at one job and at this
  // run's job count.
  if (spec.jobs > 1) {
    past::ScaleConfig twin = config;
    twin.nodes = kScaleTwinNodes;
    twin.epochs = 2;
    twin.inserts_per_epoch = kScaleTwinOps;
    twin.lookups_per_epoch = kScaleTwinOps;
    twin.sweep_period = 2;
    std::string fingerprints[2];
    for (int i = 0; i < 2; ++i) {
      twin.jobs = i == 0 ? 1 : spec.jobs;
      past::ScaleEngine small(twin);
      small.BuildNetwork();
      for (size_t e = 0; e < twin.epochs; ++e) {
        small.RunEpoch();
      }
      fingerprints[i] = small.StateFingerprint();
    }
    if (fingerprints[0] != fingerprints[1]) {
      result.errors.push_back("scale engine state differs between 1 and " +
                              std::to_string(spec.jobs) + " jobs for one seed");
    }
  }

  LayerSheet sheet;
  sheet.Set("sim.build_s", result.setup_s.back());
  sheet.Set("sim.epoch_s", Seconds(epochs_ns) / static_cast<double>(spec.epochs));
  sheet.Set("sim.epoch_sweep_s", Mean(sweep_s));
  sheet.Set("sim.epoch_nosweep_s", Mean(plain_s));
  sheet.Set("sim.route_hops_per_op", Ratio(report.route_hops, result.ops));
  if (options.trace) {
    result.layers = sheet.Finish();
  }
  result.peak_rss_mb = PeakRssMb();
  return result;
}

}  // namespace perfbench
