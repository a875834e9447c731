#include "src/sim/sim_runner.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/harness/experiment.h"
#include "src/net/latency_model.h"
#include "src/past/client.h"
#include "src/past/ops/op_engine.h"
#include "src/pastry/keepalive.h"
#include "src/sim/event_queue.h"
#include "src/sim/invariant_checker.h"
#include "src/storage/storage_env.h"

namespace past {

namespace {

constexpr SimTime kKeepAlivePeriod = 1'000;
constexpr SimTime kKeepAliveTimeout = 3 * kKeepAlivePeriod;
// A silently cut-off node is presumed failed no later than period + timeout
// after the cut; the extra periods absorb probe-round scheduling skew.
constexpr SimTime kDetectionHorizon = kKeepAlivePeriod + kKeepAliveTimeout + 2 * kKeepAlivePeriod;

constexpr uint64_t kMinFileSize = 4'000;
constexpr uint64_t kMaxFileSize = 60'000;
constexpr size_t kProbeLookups = 5;
constexpr int kReclaimFinalizeRounds = 3;

std::string Short(const FileId& id) { return id.ToHex().substr(0, 10); }

// The PAST parameters a run deploys (Pastry runs at its defaults): the
// config's k, GDS caching, and maintenance on membership changes.
PastConfig DeployedPastConfig(const SimConfig& config) {
  PastConfig past;
  past.k = config.k;
  past.cache_mode = CacheMode::kGreedyDualSize;
  past.enable_maintenance = true;
  return past;
}

// One complete simulation: deployment, clients, schedule execution, and the
// checkpoint protocol. Constructed fresh per Run so minimization replays are
// hermetic.
class Execution {
 public:
  explicit Execution(const SimConfig& config) : config_(config) {}

  SimResult Run() {
    schedule_ = ChurnScheduler(config_.seed, config_.schedule).Generate();
    result_.schedule_fingerprint = ScheduleFingerprint(schedule_);

    if (config_.durable_store) {
      // Small thresholds so soak-length runs actually roll and compact
      // segments; the env injects no faults of its own (kRecover events
      // apply per-directory power loss explicitly).
      env_ = std::make_unique<FaultEnv>();
      durable_opts_.segment_max_bytes = 32 * 1024;
      durable_opts_.compact_min_bytes = 16 * 1024;
    }
    deployment_ = BuildDeployment(config_.num_nodes, config_.capacity_per_node,
                                  DeployedPastConfig(config_), config_.seed ^ 0x5eedc0deULL,
                                  env_.get(), durable_opts_);
    net_ = deployment_.network.get();

    SimTransport::Options options;
    options.latency = LatencyModel::Lan();
    options.faults = config_.faults;
    options.seed = config_.seed ^ 0xfab71cULL;
    transport_ = &net_->UseSimTransport(queue_, options);

    driver_ = std::make_unique<KeepAliveDriver>(queue_, net_->overlay(), *transport_,
                                                kKeepAlivePeriod, kKeepAliveTimeout);

    for (size_t i = 0; i < config_.num_clients; ++i) {
      clients_.push_back(std::make_unique<PastClient>(
          *net_, deployment_.node_ids[i % deployment_.node_ids.size()],
          config_.quota_per_client, config_.seed ^ (0xc11e57ULL + i * 0x9e3779b9ULL)));
      shadow_quota_.push_back(config_.quota_per_client);
    }

    const size_t limit = std::min(schedule_.size(), config_.max_events);
    for (size_t i = 0; i < limit && failure_.empty(); ++i) {
      const ScheduledEvent& ev = schedule_[i];
      if (config_.enabled[static_cast<size_t>(ev.cls)]) {
        ExecuteEvent(i, ev);
        ++result_.events_executed;
      }
      if (config_.corrupt_at_event == i) {
        Corrupt();
      }
      HealDuePartitions(i);
      RehomeClients();
      if ((i + 1) % config_.checkpoint_every == 0 && i + 1 < limit) {
        Checkpoint();
      }
    }
    if (failure_.empty()) {
      Checkpoint();
    }
    driver_->Stop();
    if (failure_.empty()) {
      // The driver's pending round was the one legitimate timer; with it
      // stopped, a drained transport must leave the queue completely empty.
      transport_->Settle();
      if (queue_.LiveCount() != 0) {
        failure_ = "queue: " + std::to_string(queue_.LiveCount()) +
                   " live event(s) leaked after keep-alive stop";
      }
    }
    result_.ok = failure_.empty();
    result_.failure = failure_;
    result_.state_fingerprint = NetworkStateFingerprint(*net_);
    return result_;
  }

 private:
  void ExecuteEvent(size_t index, const ScheduledEvent& ev) {
    switch (ev.cls) {
      case SimEventClass::kInsert:
        DoInsert(ev);
        break;
      case SimEventClass::kLookup:
        DoLookup(ev);
        break;
      case SimEventClass::kReclaim:
        DoReclaim(ev);
        break;
      case SimEventClass::kJoin:
        DoJoin(ev);
        break;
      case SimEventClass::kCrash:
        DoCut(ev, index, /*permanent=*/true);
        break;
      case SimEventClass::kPartition:
        DoCut(ev, index, /*permanent=*/false);
        break;
      case SimEventClass::kRecover:
        DoCrashRecover(ev);
        break;
    }
  }

  // Every op is submitted through the engine: keep submitting until the
  // window is full, then pump the transport until a slot frees up.
  // Completion callbacks (which do the bookkeeping below) run from inside
  // Poll(). A window of one drives each op to completion before the next
  // schedule position.
  void ThrottleInFlight() {
    while (net_->engine().in_flight() >= config_.max_in_flight) {
      if (!net_->engine().Poll()) {
        return;
      }
    }
  }

  void OnInsertDone(size_t ci, uint64_t size, const ClientInsertResult& r) {
    if (!r.stored) {
      return;
    }
    uint64_t debit = size * config_.k;
    if (shadow_quota_[ci] < debit) {
      if (failure_.empty()) {
        failure_ = "quota: client " + std::to_string(ci) +
                   " stored a file its shadow quota cannot cover";
      }
      return;
    }
    shadow_quota_[ci] -= debit;
    files_.push_back(TrackedFile{r.file_id, size, ci, /*reclaimed=*/false, /*lost=*/false});
    ++result_.files_inserted;
  }

  void DoInsert(const ScheduledEvent& ev) {
    size_t ci = ev.pick % clients_.size();
    uint64_t size = kMinFileSize + ev.aux % (kMaxFileSize - kMinFileSize + 1);
    std::string name = "sim-" + std::to_string(insert_counter_++) + ".bin";
    clients_[ci]->BeginInsert(
        name, size, [this, ci, size](const ClientInsertResult& r) { OnInsertDone(ci, size, r); });
    ThrottleInFlight();
  }

  void DoLookup(const ScheduledEvent& ev) {
    std::vector<size_t> live = LiveFileIndices();
    if (live.empty()) {
      return;
    }
    const TrackedFile& f = files_[live[ev.pick % live.size()]];
    // Results are not asserted here: under the active fault plan a lookup
    // may legitimately time out. Checkpoint probes assert reachability.
    clients_[ev.aux % clients_.size()]->BeginLookup(f.id, nullptr);
    ++result_.lookups;
    ThrottleInFlight();
  }

  void DoReclaim(const ScheduledEvent& ev) {
    std::vector<size_t> live = LiveFileIndices();
    if (live.empty()) {
      return;
    }
    size_t idx = live[ev.pick % live.size()];
    TrackedFile& f = files_[idx];
    // Message loss may leave stragglers; the checkpoint finalizes them. The
    // file leaves the live set at submission so no later event races it.
    pending_reclaim_.push_back(idx);
    size_t owner = f.owner;
    clients_[owner]->BeginReclaim(f.id, [this, owner](const ReclaimResult& r) {
      CreditShadow(owner, r.receipts);
    });
    ThrottleInFlight();
  }

  void DoJoin(const ScheduledEvent& ev) {
    // Capacities in [0.5x, 1.5x) of the base so joins change the landscape.
    uint64_t cap = config_.capacity_per_node / 2 + ev.pick % config_.capacity_per_node;
    net_->AddStorageNode(cap);
    ++result_.joins;
  }

  // Cuts off a live node that is not cut off already, chosen by `ev.pick`,
  // and returns it. Cuts nothing (nullopt) once that would leave too little
  // of the ring reachable for k-closest sets to stay meaningful.
  std::optional<NodeId> CutOffLiveNode(const ScheduledEvent& ev) {
    size_t min_live = std::max<size_t>(2 * config_.k + 2, config_.num_nodes / 2);
    std::vector<NodeId> eligible;
    for (const NodeId& id : net_->overlay().live_nodes()) {
      if (!transport_->IsPartitioned(id)) {
        eligible.push_back(id);
      }
    }
    if (eligible.size() <= min_live) {
      return std::nullopt;
    }
    NodeId victim = eligible[ev.pick % eligible.size()];
    transport_->Partition(victim);
    cut_off_.insert(victim);
    churned_ = true;
    return victim;
  }

  void DoCut(const ScheduledEvent& ev, size_t index, bool permanent) {
    std::optional<NodeId> victim = CutOffLiveNode(ev);
    if (!victim) {
      return;
    }
    if (permanent) {
      ++result_.crashes;
    } else {
      heal_at_[*victim] = index + 2 + ev.aux % 6;
      ++result_.partitions;
    }
  }

  // kRecover: the node suffers a power loss — its directory keeps the
  // durable prefix plus a torn slice of the unsynced tail — and is cut off
  // exactly like a crash. At the next checkpoint, after failure detection
  // reaped it, it rejoins with whatever its directory replays to.
  void DoCrashRecover(const ScheduledEvent& ev) {
    std::optional<NodeId> victim = CutOffLiveNode(ev);
    if (!victim) {
      return;
    }
    const PastNode* pn = net_->storage_node(*victim);
    uint64_t capacity = pn != nullptr ? pn->store().capacity() : config_.capacity_per_node;
    if (env_ != nullptr) {
      env_->CrashDir(victim->ToHex(), /*torn=*/ev.aux % 96);
    }
    pending_recovery_.push_back(PendingRecovery{*victim, capacity});
    ++result_.recoveries;
  }

  // Runs at the checkpoint, once detection has reaped the crashed nodes and
  // the overlay healed: each pending node revives its directory and rejoins.
  // The rejoin audit + the sweep that follows reconcile the recovered state.
  void ProcessRecoveries() {
    for (const PendingRecovery& rec : pending_recovery_) {
      if (env_ != nullptr) {
        env_->ReviveDir(rec.node.ToHex());
      }
      PastNetwork::RejoinOutcome outcome = net_->RejoinStorageNode(rec.node, rec.capacity);
      result_.replicas_recovered += outcome.replicas_recovered;
      result_.replicas_dropped += outcome.replicas_dropped;
      transport_->Settle();
    }
    pending_recovery_.clear();
  }

  void HealDuePartitions(size_t index) {
    for (auto it = heal_at_.begin(); it != heal_at_.end();) {
      if (it->second <= index) {
        transport_->Heal(it->first);
        cut_off_.erase(it->first);
        it = heal_at_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void RehomeClients() {
    std::vector<NodeId> live = net_->overlay().live_nodes();
    if (live.empty()) {
      return;
    }
    for (size_t i = 0; i < clients_.size(); ++i) {
      if (!net_->overlay().IsAlive(clients_[i]->access_node())) {
        clients_[i]->set_access_node(live[i % live.size()]);
      }
    }
  }

  // Test-only sabotage: silently corrupt the store holding the first live
  // tracked file so the next checkpoint must flag the accounting mismatch.
  void Corrupt() {
    for (size_t idx : LiveFileIndices()) {
      const FileId& id = files_[idx].id;
      for (const NodeId& nid : net_->StorageNodeIds()) {
        PastNode* pn = net_->storage_node(nid);
        if (pn != nullptr && pn->store().HasReplica(id)) {
          pn->store().TestOnlyCorruptDropReplica(id);
          return;
        }
      }
    }
  }

  void Checkpoint() {
    ++result_.checkpoints;
    // Audit what must hold even mid-flight, then drain the window so the
    // quiescent protocol below sees a settled network.
    InvariantReport mid = InvariantChecker().CheckDuringOps(*net_);
    if (!mid.ok() && failure_.empty()) {
      failure_ = "mid-flight " + mid.Summary();
      return;
    }
    net_->engine().WaitAll();
    if (!failure_.empty()) {
      return;  // a completion callback reported a violation while draining
    }
    FaultPlan saved = transport_->options().faults;
    transport_->set_faults(FaultPlan{});

    // Let failure detection reap every cut-off node and let the repairs that
    // detection triggers settle, all fault-free.
    queue_.RunUntil(queue_.now() + kDetectionHorizon);
    transport_->Settle();

    for (const NodeId& id : cut_off_) {
      transport_->Heal(id);
    }
    cut_off_.clear();
    heal_at_.clear();
    RehomeClients();
    ProcessRecoveries();

    net_->MaintenanceSweep();
    FinalizeReclaims();
    if (failure_.empty()) {
      ReconcileLostFiles();
    }
    if (failure_.empty()) {
      RunChecker();
    }
    if (failure_.empty()) {
      ProbeLookups();
    }

    churned_ = false;
    transport_->set_faults(saved);
  }

  void FinalizeReclaims() {
    for (int round = 0; round < kReclaimFinalizeRounds && !pending_reclaim_.empty(); ++round) {
      bool any = false;
      for (size_t idx : pending_reclaim_) {
        TrackedFile& f = files_[idx];
        if (net_->CountLiveReplicas(f.id) > 0 || AnyPointer(f.id)) {
          ReclaimResult r = clients_[f.owner]->Reclaim(f.id);
          CreditShadow(f.owner, r.receipts);
          any = true;
        }
      }
      if (!any) {
        break;
      }
      // Re-reclaiming may race maintenance state; sweep before re-checking.
      net_->MaintenanceSweep();
    }
    for (size_t idx : pending_reclaim_) {
      TrackedFile& f = files_[idx];
      if (net_->CountLiveReplicas(f.id) > 0 || AnyPointer(f.id)) {
        failure_ = "reclaim: file " + Short(f.id) +
                   " still has replicas or pointers after finalization";
        return;
      }
      f.reclaimed = true;
      // Model cache expiry: a finalized reclaim invalidates cached copies,
      // so any later reappearance in a cache is a resurrection bug.
      PurgeFromCaches(f.id);
      ++result_.files_reclaimed;
    }
    pending_reclaim_.clear();
  }

  void ReconcileLostFiles() {
    for (TrackedFile& f : files_) {
      if (f.reclaimed || f.lost) {
        continue;
      }
      if (net_->CountLiveReplicas(f.id) == 0 && !AnyPointer(f.id)) {
        if (!churned_) {
          failure_ = "placement: file " + Short(f.id) +
                     " vanished with no crash or partition in the window";
          return;
        }
        // Every replica died before repair could run — a legitimate loss
        // under churn, recorded and excluded from further checking.
        f.lost = true;
        ++result_.files_lost;
      }
    }
  }

  void RunChecker() {
    std::vector<QuotaExpectation> quotas;
    quotas.reserve(clients_.size());
    for (size_t i = 0; i < clients_.size(); ++i) {
      quotas.push_back(QuotaExpectation{clients_[i]->card().quota_total(), shadow_quota_[i],
                                        clients_[i]->card().quota_remaining()});
    }
    InvariantReport report =
        InvariantChecker().Check(*net_, queue_, files_, quotas, /*expected_live_events=*/1);
    if (!report.ok()) {
      failure_ = report.Summary();
    }
  }

  void ProbeLookups() {
    size_t probed = 0;
    for (const TrackedFile& f : files_) {
      if (probed >= kProbeLookups) {
        break;
      }
      if (f.reclaimed || f.lost) {
        continue;
      }
      LookupResult r = clients_[f.owner]->Lookup(f.id);
      if (!r.found()) {
        failure_ = "probe: lookup of live file " + Short(f.id) +
                   " failed at a converged checkpoint";
        return;
      }
      ++probed;
    }
  }

  std::vector<size_t> LiveFileIndices() const {
    std::vector<size_t> out;
    for (size_t i = 0; i < files_.size(); ++i) {
      const TrackedFile& f = files_[i];
      if (f.reclaimed || f.lost) {
        continue;
      }
      if (std::find(pending_reclaim_.begin(), pending_reclaim_.end(), i) !=
          pending_reclaim_.end()) {
        continue;
      }
      out.push_back(i);
    }
    return out;
  }

  bool AnyPointer(const FileId& id) const {
    for (const NodeId& nid : net_->StorageNodeIds()) {
      const PastNode* pn = net_->storage_node(nid);
      if (pn != nullptr && pn->store().GetPointer(id) != nullptr) {
        return true;
      }
    }
    return false;
  }

  void PurgeFromCaches(const FileId& id) {
    for (const NodeId& nid : net_->StorageNodeIds()) {
      PastNode* pn = net_->storage_node(nid);
      if (pn != nullptr && pn->cache() != nullptr) {
        pn->cache()->Remove(id);
      }
    }
  }

  // Mirrors Smartcard::CreditReclaim bit for bit (per-receipt, capped).
  void CreditShadow(size_t ci, const std::vector<ReclaimReceipt>& receipts) {
    uint64_t total = clients_[ci]->card().quota_total();
    for (const ReclaimReceipt& r : receipts) {
      if (r.Verify()) {
        shadow_quota_[ci] = std::min(total, shadow_quota_[ci] + r.reclaimed_bytes);
      }
    }
  }

  SimConfig config_;
  std::vector<ScheduledEvent> schedule_;
  TestDeployment deployment_;
  PastNetwork* net_ = nullptr;
  EventQueue queue_;
  SimTransport* transport_ = nullptr;
  std::unique_ptr<KeepAliveDriver> driver_;
  std::vector<std::unique_ptr<PastClient>> clients_;
  std::vector<uint64_t> shadow_quota_;

  // Durable backend (config_.durable_store): one shared FaultEnv, one
  // directory per node. Null for the in-memory default.
  std::unique_ptr<FaultEnv> env_;
  DurableOptions durable_opts_;
  struct PendingRecovery {
    NodeId node;
    uint64_t capacity = 0;
  };
  std::vector<PendingRecovery> pending_recovery_;

  std::vector<TrackedFile> files_;
  std::vector<size_t> pending_reclaim_;
  std::unordered_set<NodeId, NodeIdHash> cut_off_;
  std::unordered_map<NodeId, size_t, NodeIdHash> heal_at_;
  bool churned_ = false;
  uint64_t insert_counter_ = 0;

  std::string failure_;
  SimResult result_;
};

bool Fails(const SimConfig& config, std::string* failure, size_t* executed, size_t* runs) {
  ++*runs;
  SimResult res = SimRunner(config).Run();
  if (failure != nullptr) {
    *failure = res.failure;
  }
  if (executed != nullptr) {
    *executed = res.events_executed;
  }
  return !res.ok;
}

}  // namespace

SimRunner::SimRunner(const SimConfig& config) : config_(config) {}

SimResult SimRunner::Run() { return Execution(config_).Run(); }

std::optional<MinimizeOutcome> MinimizeFailure(const SimConfig& failing) {
  MinimizeOutcome out;
  SimConfig current = failing;
  std::string failure;
  size_t executed = 0;
  if (!Fails(current, &failure, &executed, &out.runs)) {
    return std::nullopt;
  }
  out.original_events = executed;

  // Shortest failing schedule prefix. The search keeps the invariant that
  // max_events = hi fails; a pass at mid moves lo past it.
  auto bisect = [&out](SimConfig& config) {
    size_t lo = 1;
    size_t hi = std::min(config.schedule.num_events, config.max_events);
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      SimConfig trial = config;
      trial.max_events = mid;
      if (Fails(trial, nullptr, nullptr, &out.runs)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    config.max_events = hi;
  };
  bisect(current);

  // Prune whole event classes the failure does not depend on, then re-bisect
  // (a shorter prefix may suffice once unrelated events stop executing).
  for (size_t c = 0; c < kSimEventClassCount; ++c) {
    if (!current.enabled[c]) {
      continue;
    }
    SimConfig trial = current;
    trial.enabled[c] = false;
    if (Fails(trial, nullptr, nullptr, &out.runs)) {
      current = trial;
      out.pruned_classes.push_back(ToString(static_cast<SimEventClass>(c)));
    }
  }
  bisect(current);

  if (!Fails(current, &failure, &executed, &out.runs)) {
    return std::nullopt;  // non-monotonic schedule; give up rather than lie
  }
  out.minimized = current;
  out.minimized_events = executed;
  out.failure = failure;
  return out;
}

std::string SerializeSimConfig(const SimConfig& config, std::string_view failure) {
  std::ostringstream out;
  out << "# past-sim repro v1\n";
  if (!failure.empty()) {
    out << "# failure: " << failure << '\n';
  }
  out << std::setprecision(17);
  out << "seed=" << config.seed << '\n';
  out << "num_nodes=" << config.num_nodes << '\n';
  out << "capacity_per_node=" << config.capacity_per_node << '\n';
  out << "k=" << config.k << '\n';
  out << "num_clients=" << config.num_clients << '\n';
  out << "quota_per_client=" << config.quota_per_client << '\n';
  out << "num_events=" << config.schedule.num_events << '\n';
  out << "insert_weight=" << config.schedule.insert_weight << '\n';
  out << "lookup_weight=" << config.schedule.lookup_weight << '\n';
  out << "reclaim_weight=" << config.schedule.reclaim_weight << '\n';
  out << "join_weight=" << config.schedule.join_weight << '\n';
  out << "crash_weight=" << config.schedule.crash_weight << '\n';
  out << "partition_weight=" << config.schedule.partition_weight << '\n';
  out << "recover_weight=" << config.schedule.recover_weight << '\n';
  out << "shape=" << ToString(config.schedule.shape) << '\n';
  out << "shape_start=" << config.schedule.shape_start << '\n';
  out << "shape_end=" << config.schedule.shape_end << '\n';
  out << "shape_hot_files=" << config.schedule.shape_hot_files << '\n';
  out << "durable_store=" << (config.durable_store ? 1 : 0) << '\n';
  out << "checkpoint_every=" << config.checkpoint_every << '\n';
  out << "max_in_flight=" << config.max_in_flight << '\n';
  out << "max_events=" << (config.max_events == kAllEvents ? 0 : config.max_events) << '\n';
  out << "drop_probability=" << config.faults.drop_probability << '\n';
  out << "duplicate_probability=" << config.faults.duplicate_probability << '\n';
  out << "delay_probability=" << config.faults.delay_probability << '\n';
  out << "delay_ms=" << config.faults.delay_ms << '\n';
  out << "corrupt_at_event=";
  if (config.corrupt_at_event == kNoCorruption) {
    out << "none";
  } else {
    out << config.corrupt_at_event;
  }
  out << '\n';
  out << "enabled=";
  bool first = true;
  for (size_t c = 0; c < kSimEventClassCount; ++c) {
    if (config.enabled[c]) {
      if (!first) {
        out << ',';
      }
      out << ToString(static_cast<SimEventClass>(c));
      first = false;
    }
  }
  out << '\n';
  return out.str();
}

std::optional<SimConfig> ParseSimConfig(const std::string& text) {
  SimConfig config;
  std::istringstream in(text);
  std::string line;
  bool any = false;
  while (std::getline(in, line)) {
    // Trim whitespace and skip comments / blanks.
    size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '#') {
      continue;
    }
    size_t end = line.find_last_not_of(" \t\r");
    std::string body = line.substr(begin, end - begin + 1);
    size_t eq = body.find('=');
    if (eq == std::string::npos) {
      return std::nullopt;
    }
    std::string key = body.substr(0, eq);
    std::string value = body.substr(eq + 1);
    any = true;
    // A number must parse in full: "abc" or "4M" makes the file malformed
    // rather than reading as 0 or 4.
    bool malformed = false;
    auto as_u64 = [&value, &malformed]() -> uint64_t {
      char* end = nullptr;
      errno = 0;
      uint64_t v = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0])) ||
          *end != '\0' || errno == ERANGE) {
        malformed = true;
      }
      return v;
    };
    auto as_double = [&value, &malformed]() {
      char* end = nullptr;
      double v = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !std::isfinite(v)) {
        malformed = true;
      }
      return v;
    };
    if (key == "seed") {
      config.seed = as_u64();
    } else if (key == "num_nodes") {
      config.num_nodes = static_cast<size_t>(as_u64());
    } else if (key == "capacity_per_node") {
      config.capacity_per_node = as_u64();
    } else if (key == "k") {
      config.k = static_cast<uint32_t>(as_u64());
    } else if (key == "num_clients") {
      config.num_clients = static_cast<size_t>(as_u64());
    } else if (key == "quota_per_client") {
      config.quota_per_client = as_u64();
    } else if (key == "num_events") {
      config.schedule.num_events = static_cast<size_t>(as_u64());
    } else if (key == "insert_weight") {
      config.schedule.insert_weight = as_double();
    } else if (key == "lookup_weight") {
      config.schedule.lookup_weight = as_double();
    } else if (key == "reclaim_weight") {
      config.schedule.reclaim_weight = as_double();
    } else if (key == "join_weight") {
      config.schedule.join_weight = as_double();
    } else if (key == "crash_weight") {
      config.schedule.crash_weight = as_double();
    } else if (key == "partition_weight") {
      config.schedule.partition_weight = as_double();
    } else if (key == "recover_weight") {
      config.schedule.recover_weight = as_double();
    } else if (key == "shape") {
      std::optional<ScheduleShape> shape = ScheduleShapeFromName(value);
      if (!shape.has_value()) {
        return std::nullopt;
      }
      config.schedule.shape = *shape;
    } else if (key == "shape_start") {
      config.schedule.shape_start = as_double();
    } else if (key == "shape_end") {
      config.schedule.shape_end = as_double();
    } else if (key == "shape_hot_files") {
      config.schedule.shape_hot_files = as_u64();
    } else if (key == "durable_store") {
      config.durable_store = as_u64() != 0;
    } else if (key == "checkpoint_every") {
      config.checkpoint_every = static_cast<size_t>(as_u64());
    } else if (key == "max_in_flight") {
      config.max_in_flight = std::max<size_t>(1, static_cast<size_t>(as_u64()));
    } else if (key == "max_events") {
      uint64_t v = as_u64();
      config.max_events = v == 0 ? kAllEvents : static_cast<size_t>(v);
    } else if (key == "drop_probability") {
      config.faults.drop_probability = as_double();
    } else if (key == "duplicate_probability") {
      config.faults.duplicate_probability = as_double();
    } else if (key == "delay_probability") {
      config.faults.delay_probability = as_double();
    } else if (key == "delay_ms") {
      config.faults.delay_ms = as_double();
    } else if (key == "corrupt_at_event") {
      config.corrupt_at_event = value == "none" ? kNoCorruption : as_u64();
    } else if (key == "enabled") {
      config.enabled.fill(false);
      size_t pos = 0;
      while (pos <= value.size()) {
        size_t comma = value.find(',', pos);
        std::string name =
            value.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (!name.empty()) {
          std::optional<SimEventClass> cls = SimEventClassFromName(name);
          if (!cls.has_value()) {
            return std::nullopt;
          }
          config.enabled[static_cast<size_t>(*cls)] = true;
        }
        if (comma == std::string::npos) {
          break;
        }
        pos = comma + 1;
      }
    }
    // Unknown keys are ignored for forward compatibility.
    if (malformed) {
      return std::nullopt;
    }
  }
  // Zero capacity would divide by zero (DoJoin). A k of zero, or one larger
  // than l/2 + 1, leaves the k closest unsound (ValidatePastConfig).
  if (!any || config.num_nodes == 0 || config.num_clients == 0 ||
      config.checkpoint_every == 0 || config.capacity_per_node == 0 ||
      !ValidatePastConfig(DeployedPastConfig(config), PastryConfig{}).empty()) {
    return std::nullopt;
  }
  return config;
}

}  // namespace past
