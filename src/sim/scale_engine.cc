#include "src/sim/scale_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "src/past/store_chain.h"

namespace past {
namespace {

// SplitMix64 finalizer: decorrelates epoch / op indices into rng seeds.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void HashU64(Sha1& h, uint64_t v) { h.Update(&v, sizeof(v)); }

void HashDouble(Sha1& h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  HashU64(h, bits);
}

void HashNodeId(Sha1& h, const NodeId& id) {
  HashU64(h, Uint128High64(id.value()));
  HashU64(h, Uint128Low64(id.value()));
}

double BinomialPmf(uint32_t k, uint32_t i, double p) {
  double c = 1.0;
  for (uint32_t j = 0; j < i; ++j) {
    c = c * static_cast<double>(k - j) / static_cast<double>(j + 1);
  }
  return c * std::pow(p, static_cast<double>(i)) *
         std::pow(1.0 - p, static_cast<double>(k - i));
}

}  // namespace

ScaleEngine::ScaleEngine(const ScaleConfig& config) : config_(config) {
  if (config_.jobs == 0) {
    config_.jobs = 1;
  }
  // Phase A purity requirements (see header).
  config_.past.cache_mode = CacheMode::kNone;
  config_.past.enable_maintenance = false;
  // Safe here (and only here): nothing in the engine observes store-table
  // iteration order — snapshots sort, eligibility counts are commutative.
  config_.past.compact_store_tables = true;
  net_ = std::make_unique<PastNetwork>(config_.past, config_.pastry, config_.seed);
  pool_ = std::make_unique<ThreadPool>(config_.jobs);
  shard_forgets_.resize(config_.jobs);
  shard_ops_.resize(config_.jobs);
  shard_stats_.resize(config_.jobs);
}

ScaleEngine::~ScaleEngine() = default;

void ScaleEngine::BuildNetwork() {
  // Joins per announcement cohort: within a cohort the "newcomer tells
  // everyone it knows" Learn storm is queued per target and applied on that
  // target's next read (see PastryNetwork join batching). Every cohort size
  // reaches the same overlay state (PastryStateDigestTest pins eager, 16 and
  // single-flush builds to one digest), but larger cohorts turn the dominant
  // build cost from random-access Learns into batched passes (at 100k
  // nodes, 1024 builds ~19% faster than 256; returns diminish past that).
  constexpr size_t kJoinCohort = 1024;
  PastryNetwork& overlay = net_->overlay();
  overlay.BeginJoinBatch();
  for (size_t i = 0; i < config_.nodes; ++i) {
    net_->AddStorageNode(config_.node_capacity);
    if ((i + 1) % kJoinCohort == 0) {
      overlay.FlushJoinBatch();
    }
  }
  overlay.EndJoinBatch();
}

uint32_t ScaleEngine::ShardOf(const NodeId& key) const {
  // Shard s owns the contiguous key range [s, s+1) * 2^128 / jobs: multiply
  // the top 64 bits into [0, jobs) without division.
  uint128 scaled = static_cast<uint128>(Uint128High64(key.value())) *
                   static_cast<uint128>(config_.jobs);
  return static_cast<uint32_t>(Uint128High64(scaled));
}

void ScaleEngine::GenerateOps(Rng& epoch_rng, std::vector<Op>& ops) {
  const SortedRing& ring = net_->overlay().ring();
  if (ring.size() == 0) {
    return;
  }
  size_t lookups = files_.empty() ? 0 : config_.lookups_per_epoch;
  ops.reserve(config_.inserts_per_epoch + lookups);
  for (size_t i = 0; i < config_.inserts_per_epoch; ++i) {
    Op op;
    op.kind = Op::kInsert;
    std::array<uint8_t, FileId::kBytes> bytes;
    for (size_t w = 0; w < 2; ++w) {
      uint64_t v = epoch_rng.NextU64();
      std::memcpy(bytes.data() + 8 * w, &v, 8);
    }
    uint32_t tail = static_cast<uint32_t>(epoch_rng.NextU64());
    std::memcpy(bytes.data() + 16, &tail, 4);
    op.file = FileId(bytes);
    op.key = op.file.ToRoutingKey();
    double mean = static_cast<double>(config_.mean_file_size);
    double draw = -mean * std::log1p(-epoch_rng.NextDouble());
    op.size = 1 + static_cast<uint64_t>(std::min(mean * 16.0, draw));
    op.origin = ring.at(epoch_rng.NextBelow(ring.size()));
    op.shard = ShardOf(op.key);
    shard_ops_[op.shard].push_back(static_cast<uint32_t>(ops.size()));
    ops.push_back(std::move(op));
  }
  for (size_t i = 0; i < lookups; ++i) {
    Op op;
    op.kind = Op::kLookup;
    op.file = files_[epoch_rng.NextBelow(files_.size())].id;
    op.key = op.file.ToRoutingKey();
    op.origin = ring.at(epoch_rng.NextBelow(ring.size()));
    op.shard = ShardOf(op.key);
    shard_ops_[op.shard].push_back(static_cast<uint32_t>(ops.size()));
    ops.push_back(std::move(op));
  }
}

void ScaleEngine::PlanShard(std::vector<Op>& ops, uint32_t shard) {
  uint64_t epoch_mix = Mix64(config_.seed) ^ Mix64(epoch_ + 1);
  for (uint32_t i : shard_ops_[shard]) {
    Op& op = ops[i];
    // Per-op derived rng, keyed by the op's global index: identical route
    // randomization draws regardless of shard count or execution order.
    Rng op_rng(epoch_mix ^ Mix64(static_cast<uint64_t>(i) + 1));
    RouteOptions options;
    options.stats = &shard_stats_[shard];
    options.rng = &op_rng;
    options.deferred_forgets = &shard_forgets_[shard];
    if (op.kind == Op::kInsert) {
      PlanInsert(op, options);
    } else {
      PlanLookup(op, options);
    }
  }
}

void ScaleEngine::PlanInsert(Op& op, const RouteOptions& options) {
  const size_t k = net_->config_.k;
  const NodeId key = op.key;
  op.route = RouteSummary::Of(net_->pastry_.Route(
      op.origin, key, [&](const NodeId& n) { return net_->IsAmongKClosest(n, key, k); },
      options));
  if (!op.route.delivered || !op.route.reached) {
    return;
  }
  op.plan = net_->PlanInsertTargets(op.route.destination, key);
}

void ScaleEngine::PlanLookup(Op& op, const RouteOptions& options) {
  const PastNetwork& cnet = *net_;
  const FileId file = op.file;
  auto stop = [&](const NodeId& n) {
    const PastNode* pn = cnet.storage_node(n);
    return pn != nullptr && pn->store().HasReplica(file);
  };
  op.route = RouteSummary::Of(net_->pastry_.Route(op.origin, op.key, stop, options));
  if (!op.route.delivered) {
    return;
  }
  op.found = op.route.stopped_early;
  if (op.found) {
    op.served = op.route.destination;
    return;
  }
  if (!op.route.reached) {
    return;
  }
  // Mirror LookupOp: the route ended at the numerically closest node without
  // finding a replica — one extra hop to a holder near the root.
  std::optional<PastNetwork::NearRootServe> near =
      cnet.ServeNearRoot(op.route.destination, op.key, file);
  if (near) {
    op.found = true;
    op.via_pointer = near->via_pointer;
    op.served = near->holder;
    op.extra_hops = 1;
    op.extra_distance = near->distance;
    options.stats->RecordHop(op.extra_distance);
  }
}

void ScaleEngine::CommitInsert(Op& op, ScaleEpochStats& stats) {
  ++stats.inserts;

  // The fileId collision check runs at commit time (root semantics: against
  // the stores as they are when the request lands).
  bool stored = op.route.delivered && op.route.reached && !op.plan.targets.empty() &&
                !net_->AnyHolds(op.plan.targets, op.file);
  if (stored) {
    StoreChain chain(*net_, op.route.destination, std::move(op.plan), op.file, op.size, nullptr,
                     nullptr);
    while (stored && chain.NextTarget()) {
      if (chain.AtTarget()) {
        chain.AtDiversionTarget();
        if (chain.AtDiverter()) {
          chain.AtWitness();
        }
      }
      stored = chain.stored();
    }
    if (!stored) {
      // The client would re-salt; at engine scale the failure is only counted.
      chain.Rollback();
    }
  }
  if (stored) {
    ++stats.inserts_stored;
    files_.push_back({op.file, op.size});
  }
  net_->RecordInsert(op.size, static_cast<int>(op.route.hops), stored);
}

void ScaleEngine::CommitLookup(const Op& op, ScaleEpochStats& stats) {
  ++stats.lookups;
  LookupResult result;
  if (op.found) {
    ++stats.lookups_found;
    result.status = LookupStatus::kFound;
    result.via_diversion_pointer = op.via_pointer;
    result.hops = static_cast<int>(op.route.hops + op.extra_hops);
    result.distance = op.route.distance + op.extra_distance;
  }
  net_->RecordLookup(result);
}

void ScaleEngine::ApplyChurn(Rng& epoch_rng, ScaleEpochStats& stats) {
  const size_t min_live =
      static_cast<size_t>(config_.pastry.leaf_set_size) * 2 + 8;
  size_t live_before = net_->overlay().live_count();
  size_t crashed = 0;
  for (size_t i = 0; i < config_.crashes_per_epoch; ++i) {
    const SortedRing& ring = net_->overlay().ring();
    if (ring.size() <= min_live) {
      break;
    }
    NodeId victim = ring.at(epoch_rng.NextBelow(ring.size()));
    net_->FailStorageNode(victim);
    ++crashed;
  }
  stats.crashes = crashed;
  if (live_before > 0 && crashed > 0) {
    survival_probability_ *=
        1.0 - static_cast<double>(crashed) / static_cast<double>(live_before);
  }
  for (size_t i = 0; i < config_.joins_per_epoch; ++i) {
    net_->AddStorageNode(config_.node_capacity);
    ++stats.joins;
  }
}

ScaleEpochStats ScaleEngine::RunEpoch() {
  ScaleEpochStats stats;
  stats.epoch = epoch_;

  Rng epoch_rng(Mix64(config_.seed) ^ Mix64(epoch_ + 0x5ca1e));
  std::vector<Op> ops;
  for (auto& indices : shard_ops_) {
    indices.clear();
  }
  GenerateOps(epoch_rng, ops);

  // --- Phase A: parallel read-only route + plan, one task per shard ---
  for (auto& forgets : shard_forgets_) {
    forgets.clear();
  }
  ParallelChunks(*pool_, config_.jobs, [this, &ops](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      PlanShard(ops, static_cast<uint32_t>(s));
    }
  });

  // --- Barrier: canonical-order route accounting, then deferred forgets ---
  TransportStats& ledger = net_->overlay().stats();
  for (const Op& op : ops) {
    uint64_t hops = static_cast<uint64_t>(op.route.hops);
    ledger.RecordRoute(hops, op.route.distance);
    op_route_totals_.RecordRoute(hops, op.route.distance);
    for (uint32_t e = 0; e < op.extra_hops; ++e) {
      ledger.RecordHop(op.extra_distance);
      op_route_totals_.RecordHop(op.extra_distance);
    }
    stats.route_hops += hops + op.extra_hops;
  }
  for (const auto& forgets : shard_forgets_) {
    for (const DeferredForget& f : forgets) {
      PastryNode* observer = net_->pastry_.node(f.observer);
      if (observer != nullptr) {
        observer->Forget(f.dead);
      }
      ++stats.deferred_forgets;
    }
  }

  // --- Phase B: serial commit in op order ---
  for (Op& op : ops) {
    if (op.kind == Op::kInsert) {
      CommitInsert(op, stats);
    } else {
      CommitLookup(op, stats);
    }
    FingerprintOp(op);
  }

  // --- Epoch edge: churn, then periodic maintenance ---
  ApplyChurn(epoch_rng, stats);
  ++epochs_since_sweep_;
  if (config_.sweep_period != 0 && (epoch_ + 1) % config_.sweep_period == 0) {
    net_->MaintenanceSweep(pool_.get());
    stats.swept = true;
    survival_probability_ = 1.0;
    epochs_since_sweep_ = 0;
    SnapshotEligibleFiles();
  }

  epoch_stats_.push_back(stats);
  ++epoch_;
  return stats;
}

FlatTable<FileId, uint32_t, FileIdHash> ScaleEngine::LiveReplicaCounts() const {
  FlatTable<FileId, uint32_t, FileIdHash> counts;
  counts.Reserve(files_.size() * 2);
  for (const auto& [id, node] : net_->nodes_) {
    if (!net_->pastry_.IsAlive(id)) {
      continue;
    }
    for (const auto& [fid, entry] : node->store().replicas()) {
      (void)entry;
      ++*counts.TryEmplace(fid, 0).first;
    }
  }
  return counts;
}

void ScaleEngine::SnapshotEligibleFiles() {
  const FlatTable<FileId, uint32_t, FileIdHash> counts = LiveReplicaCounts();
  eligible_files_.clear();
  const uint32_t k = net_->config_.k;
  for (const TrackedFile& f : files_) {
    const uint32_t* count = counts.Find(f.id);
    if (count != nullptr && *count >= k) {
      eligible_files_.push_back(f.id);
    }
  }
}

void ScaleEngine::MeasureMeanField(ScaleReport& report) const {
  if (eligible_files_.empty() || epochs_since_sweep_ == 0) {
    return;
  }
  const uint32_t k = net_->config_.k;
  const FlatTable<FileId, uint32_t, FileIdHash> counts = LiveReplicaCounts();
  report.replica_histogram.assign(k + 1, 0);
  for (const FileId& f : eligible_files_) {
    const uint32_t* count = counts.Find(f);
    uint32_t c = count == nullptr ? 0 : std::min(*count, k);
    ++report.replica_histogram[c];
  }
  report.eligible_files = eligible_files_.size();
  report.survival_probability = survival_probability_;
  report.epochs_since_sweep = epochs_since_sweep_;
  // Mean-field prediction: each of the k replicas independently survives the
  // window since the last sweep with probability s (the per-epoch survival
  // product), giving Binomial(k, s) live replicas per eligible file.
  report.predicted_histogram.assign(k + 1, 0.0);
  double total = static_cast<double>(eligible_files_.size());
  double tv = 0.0;
  for (uint32_t i = 0; i <= k; ++i) {
    double p = BinomialPmf(k, i, survival_probability_);
    report.predicted_histogram[i] = p * total;
    double empirical = static_cast<double>(report.replica_histogram[i]) / total;
    tv += std::abs(empirical - p);
  }
  report.tv_distance = 0.5 * tv;
}

void ScaleEngine::FingerprintOp(const Op& op) {
  schedule_hash_.Update(op.file.bytes().data(), op.file.bytes().size());
  uint64_t packed = (op.kind == Op::kInsert ? 1ULL : 2ULL) |
                    (op.found ? 4ULL : 0) | (op.via_pointer ? 8ULL : 0) |
                    (static_cast<uint64_t>(op.route.hops) << 8) |
                    (static_cast<uint64_t>(op.extra_hops) << 24);
  HashU64(schedule_hash_, packed);
  HashDouble(schedule_hash_, op.route.distance);
}

std::string ScaleEngine::StateFingerprint() const {
  Sha1 h;
  const PastryNetwork& overlay = net_->pastry_;
  const SortedRing& ring = overlay.ring();
  HashU64(h, ring.size());
  for (const NodeId& id : ring) {
    HashNodeId(h, id);
    // Leaf sets witness that deferred forgets and repairs converged to the
    // same membership view regardless of shard count.
    const PastryNode* pn = overlay.node(id);
    for (const NodeId& member : pn->leaf_set().All()) {
      HashNodeId(h, member);
    }
  }
  // Storage state, in sorted node order with per-node sorted tables, so the
  // digest is independent of hash-table slot layout.
  for (const NodeId& id : net_->StorageNodeIds()) {
    const PastNode* pn = net_->storage_node(id);
    HashNodeId(h, id);
    HashU64(h, pn->store().used());
    std::vector<std::pair<FileId, std::pair<uint8_t, uint64_t>>> replicas;
    replicas.reserve(pn->store().replicas().size());
    for (const auto& [fid, entry] : pn->store().replicas()) {
      replicas.push_back({fid, {static_cast<uint8_t>(entry.kind), entry.size}});
    }
    std::sort(replicas.begin(), replicas.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [fid, info] : replicas) {
      h.Update(fid.bytes().data(), fid.bytes().size());
      HashU64(h, info.first);
      HashU64(h, info.second);
    }
    std::vector<std::pair<FileId, DiversionPointer>> pointers;
    pointers.reserve(pn->store().pointers().size());
    for (const auto& [fid, ptr] : pn->store().pointers()) {
      pointers.push_back({fid, ptr});
    }
    std::sort(pointers.begin(), pointers.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [fid, ptr] : pointers) {
      h.Update(fid.bytes().data(), fid.bytes().size());
      HashNodeId(h, ptr.holder);
      HashU64(h, static_cast<uint64_t>(ptr.role));
      HashU64(h, ptr.size);
    }
  }
  HashU64(h, net_->total_stored());
  HashU64(h, net_->total_capacity());
  const PastNetwork::Instruments& ins = net_->ins_;
  HashU64(h, ins.insert_attempts->value());
  HashU64(h, ins.insert_failures->value());
  HashU64(h, static_cast<uint64_t>(ins.replicas_stored->value()));
  HashU64(h, static_cast<uint64_t>(ins.replicas_diverted->value()));
  HashU64(h, ins.lookups->value());
  HashU64(h, ins.lookups_found->value());
  HashU64(h, ins.replicas_recreated->value());
  HashU64(h, ins.files_lost->value());
  const TransportStats& stats = overlay.stats();
  HashU64(h, stats.hops());
  HashU64(h, stats.messages());
  HashU64(h, stats.bytes_sent());
  HashDouble(h, stats.total_distance());
  return DigestToHex(h.Final());
}

ScaleReport ScaleEngine::Run() {
  BuildNetwork();
  for (size_t e = 0; e < config_.epochs; ++e) {
    RunEpoch();
  }
  return BuildReport();
}

ScaleReport ScaleEngine::BuildReport() const {
  ScaleReport report;
  for (const ScaleEpochStats& s : epoch_stats_) {
    report.inserts += s.inserts;
    report.inserts_stored += s.inserts_stored;
    report.lookups += s.lookups;
    report.lookups_found += s.lookups_found;
    report.route_hops += s.route_hops;
    report.events += s.inserts + s.lookups + s.crashes + s.joins + s.route_hops;
  }
  report.live_nodes = net_->overlay().live_count();
  report.files_tracked = files_.size();
  report.utilization = net_->utilization();
  report.state_fingerprint = StateFingerprint();
  Sha1 schedule = schedule_hash_;
  report.schedule_fingerprint = DigestToHex(schedule.Final());
  MeasureMeanField(report);
  return report;
}

}  // namespace past
