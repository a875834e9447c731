#include "src/past/past_network.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/past/ops/op_engine.h"
#include "src/past/ops/repair_op.h"

namespace past {
namespace {

// Adapts the network's seeded Rng onto the placement-entropy interface so
// placement draws are part of the deterministic replay.
class RngPlacementEntropy : public PlacementEntropy {
 public:
  explicit RngPlacementEntropy(Rng& rng) : rng_(rng) {}
  uint64_t NextBelow(uint64_t bound) override { return rng_.NextBelow(bound); }

 private:
  Rng& rng_;
};

// A diversion candidate is eligible when its store does not already hold a
// replica of the file; each probe is one replica-table lookup.
class NotHoldingFile : public DiversionEligibility {
 public:
  NotHoldingFile(const std::vector<const PastNode*>& stores, const FileId& file)
      : stores_(stores), file_(file) {}
  bool Eligible(size_t i) override { return !stores_[i]->store().HasReplica(file_); }

 private:
  const std::vector<const PastNode*>& stores_;
  const FileId& file_;
};

}  // namespace

PastNetwork::PastNetwork(const PastConfig& config, const PastryConfig& pastry_config,
                         uint64_t seed)
    : config_(config), pastry_config_(pastry_config), pastry_(pastry_config, seed),
      rng_(seed ^ 0x9e3779b97f4a7c15ULL),
      transport_(std::make_unique<InlineTransport>(&pastry_.stats())) {
  pastry_.AddObserver(this);
  ins_.insert_attempts = &metrics_.GetCounter("past.insert.attempts");
  ins_.insert_failures = &metrics_.GetCounter("past.insert.failures");
  ins_.replicas_stored = &metrics_.GetGauge("past.replicas.stored");
  ins_.replicas_diverted = &metrics_.GetGauge("past.replicas.diverted");
  ins_.lookups = &metrics_.GetCounter("past.lookup.requests");
  ins_.lookups_found = &metrics_.GetCounter("past.lookup.found");
  ins_.lookups_from_cache = &metrics_.GetCounter("past.lookup.cache_hits");
  ins_.lookup_pointer_hops = &metrics_.GetCounter("past.lookup.pointer_hops");
  ins_.replicas_recreated = &metrics_.GetCounter("past.maintenance.replicas_recreated");
  ins_.maintenance_pointers = &metrics_.GetCounter("past.maintenance.pointers_installed");
  ins_.files_lost = &metrics_.GetCounter("past.maintenance.files_lost");
  ins_.insert_size =
      &metrics_.GetHistogram("past.insert.file_size_bytes", obs::FileSizeBuckets());
  ins_.insert_hops = &metrics_.GetHistogram("past.insert.hops", obs::HopBuckets());
  ins_.lookup_hops = &metrics_.GetHistogram("past.lookup.hops", obs::HopBuckets());
  ins_.lookup_distance =
      &metrics_.GetHistogram("past.lookup.distance", obs::DistanceBuckets());
  ins_.cache_tier_misses = &metrics_.GetCounter("past.cache.tier_misses");
  engine_ = std::make_unique<OpEngine>(*this);
}

void PastNetwork::set_transport(std::unique_ptr<Transport> transport) {
  if (transport == nullptr) {
    transport_ = std::make_unique<InlineTransport>(&pastry_.stats());
    return;
  }
  transport_ = std::move(transport);
}

SimTransport& PastNetwork::UseSimTransport(EventQueue& queue,
                                           const SimTransport::Options& options) {
  auto sim = std::make_unique<SimTransport>(queue, options, &pastry_.stats());
  SimTransport& ref = *sim;
  transport_ = std::move(sim);
  return ref;
}

void PastNetwork::EmitTrace(obs::OpTrace event) {
  if (trace_sink_ == nullptr) {
    return;
  }
  event.seq = trace_seq_++;
  trace_sink_->Record(event);
}

obs::MetricsSnapshot PastNetwork::SnapshotMetrics() const {
  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  snapshot.gauges["past.utilization"] = utilization();
  snapshot.gauges["past.capacity_bytes"] = static_cast<double>(total_capacity_);
  snapshot.gauges["past.stored_bytes"] = static_cast<double>(total_stored_);
  snapshot.gauges["past.nodes_live"] = static_cast<double>(pastry_.live_count());
  pastry_.stats().ExportTo(snapshot, "net.");
  for (const auto& [id, node] : nodes_) {
    if (!pastry_.IsAlive(id)) {
      continue;
    }
    node->RefreshGauges();
    snapshot.Merge(node->metrics().Snapshot());
  }
  return snapshot;
}

obs::MetricsSnapshot PastNetwork::NodeMetrics(const NodeId& id) const {
  const PastNode* node = storage_node(id);
  if (node == nullptr) {
    return {};
  }
  node->RefreshGauges();
  return node->metrics().Snapshot();
}

PastNetwork::~PastNetwork() { pastry_.RemoveObserver(this); }

NodeId PastNetwork::AddStorageNode(uint64_t capacity_bytes) {
  Coordinate location{rng_.NextDouble(), rng_.NextDouble()};
  return AddStorageNodeNear(capacity_bytes, location, 0.0);
}

NodeId PastNetwork::AddStorageNodeNear(uint64_t capacity_bytes, const Coordinate& center,
                                       double spread) {
  // The PastNode must exist before the Pastry join fires OnNodeJoined.
  NodeId id;
  for (;;) {
    id = NodeId(rng_.NextU64(), rng_.NextU64());
    if (!nodes_.Contains(id) && pastry_.node(id) == nullptr) {
      break;
    }
  }
  nodes_.InsertOrAssign(id, std::make_unique<PastNode>(id, config_, capacity_bytes, rng_));
  if (durable_env_ != nullptr) {
    storage_node(id)->store().EnableDurability(*durable_env_, id.ToHex(), durable_opts_);
  }
  total_capacity_ += capacity_bytes;

  Coordinate location = center;
  if (spread > 0.0) {
    // Sample a clustered location deterministically from our own rng; Join
    // wraps it onto the torus.
    location = Coordinate{center.x + spread * rng_.NextGaussian(),
                          center.y + spread * rng_.NextGaussian()};
  }
  pastry_.Join(id, location);
  return id;
}

PastNetwork::AdmissionOutcome PastNetwork::AddStorageNodeWithAdmission(
    uint64_t advertised_capacity) {
  AdmissionOutcome outcome;
  // The prospective leaf set of a node with a fresh quasi-random id; at this
  // point the node has not joined, so we sample where it would land.
  NodeId tentative(rng_.NextU64(), rng_.NextU64());
  std::vector<uint64_t> leaf_capacities;
  for (const NodeId& neighbor : pastry_.KClosestLive(
           tentative, static_cast<size_t>(pastry_config_.leaf_set_size))) {
    const PastNode* pn = storage_node(neighbor);
    if (pn != nullptr) {
      leaf_capacities.push_back(pn->store().capacity());
    }
  }
  AdmissionControl control;
  control.metrics = &metrics_;
  AdmissionResult result = control.Evaluate(advertised_capacity, leaf_capacities);
  outcome.decision = result.decision;
  switch (result.decision) {
    case AdmissionDecision::kReject:
      break;
    case AdmissionDecision::kAccept:
      outcome.nodes.push_back(AddStorageNode(advertised_capacity));
      break;
    case AdmissionDecision::kSplit: {
      uint64_t per_node = advertised_capacity / static_cast<uint64_t>(result.split_count);
      for (int i = 0; i < result.split_count; ++i) {
        outcome.nodes.push_back(AddStorageNode(per_node));
      }
      break;
    }
  }
  return outcome;
}

void PastNetwork::FailStorageNode(const NodeId& id) {
  // OnNodeFailed() performs the PAST-level bookkeeping.
  pastry_.FailNode(id);
}

void PastNetwork::UseDurableStore(StorageEnv& env, const DurableOptions& opts) {
  durable_env_ = &env;
  durable_opts_ = opts;
}

PastNetwork::RejoinOutcome PastNetwork::RejoinStorageNode(const NodeId& id,
                                                          uint64_t capacity_bytes) {
  RejoinOutcome outcome;
  if (nodes_.Contains(id) || pastry_.IsAlive(id)) {
    return outcome;  // only a currently-dead node can rejoin
  }

  auto node = std::make_unique<PastNode>(id, config_, capacity_bytes, rng_);
  PastNode* pn = node.get();
  if (durable_env_ != nullptr) {
    pn->store().RecoverDurable(*durable_env_, id.ToHex(), durable_opts_);
  }

  // Rejoin audit, before the node is visible to anyone. The directory is an
  // honest record of what this node held when it died, but the overlay has
  // moved on: reclaims it missed must not resurrect files, and replicas the
  // network re-created elsewhere must not be double-counted. A recovered
  // replica survives only while the file's *current* k-closest neighborhood
  // still references it — some k-closest node holds a replica or a pointer
  // naming it. Everything else is dropped here; the maintenance sweep after
  // the join re-advertises survivors (promoting them where this node is
  // again among the k closest) and repairs what the drops uncovered.
  std::vector<FileId> drop_replicas;
  for (const auto& [file, entry] : pn->store().replicas()) {
    (void)entry;
    std::vector<NodeId> k_closest = pastry_.KClosestLive(file.ToRoutingKey(), config_.k);
    bool referenced = false;
    for (const NodeId& t : k_closest) {
      const PastNode* tn = storage_node(t);
      if (tn == nullptr) {
        continue;
      }
      if (tn->store().HasReplica(file)) {
        referenced = true;
        break;
      }
      const DiversionPointer* ptr = tn->store().GetPointer(file);
      if (ptr != nullptr && ptr->holder == id) {
        referenced = true;
        break;
      }
    }
    if (!referenced) {
      drop_replicas.push_back(file);
    }
  }
  // A recovered pointer is stale unless its holder is alive and still has
  // the replica (the witness/diverter roles are rebuilt by repair anyway).
  std::vector<FileId> drop_pointers;
  for (const auto& [file, ptr] : pn->store().pointers()) {
    if (!PointerResolves(&ptr, file)) {
      drop_pointers.push_back(file);
    }
  }
  for (const FileId& file : drop_replicas) {
    pn->store().RemoveReplica(file);
    ++outcome.replicas_dropped;
  }
  for (const FileId& file : drop_pointers) {
    pn->store().RemovePointer(file);
    ++outcome.pointers_dropped;
  }
  pn->store().Commit();
  outcome.replicas_recovered = pn->store().replica_count();

  // Accounting for the surviving state, mirroring AddStorageNode/OnNodeFailed.
  total_capacity_ += capacity_bytes;
  total_stored_ += pn->store().used();
  ins_.replicas_stored->Add(static_cast<double>(pn->store().replica_count()));
  ins_.replicas_diverted->Add(static_cast<double>(pn->store().diverted_count()));

  nodes_.InsertOrAssign(id, std::move(node));

  Coordinate location{rng_.NextDouble(), rng_.NextDouble()};
  outcome.ok = pastry_.Join(id, location);  // fires OnNodeJoined -> repair
  return outcome;
}

PastNode* PastNetwork::storage_node(const NodeId& id) {
  std::unique_ptr<PastNode>* slot = nodes_.Find(id);
  return slot == nullptr ? nullptr : slot->get();
}

const PastNode* PastNetwork::storage_node(const NodeId& id) const {
  const std::unique_ptr<PastNode>* slot = nodes_.Find(id);
  return slot == nullptr ? nullptr : slot->get();
}

std::vector<NodeId> PastNetwork::KClosestFromLeafSet(const NodeId& root, const NodeId& key,
                                                     size_t k) const {
  const PastryNetwork::NodeIndex root_index = pastry_.IndexOf(root);
  if (root_index == PastryNetwork::kInvalidIndex) {
    return {};
  }
  const PastryNode* node = pastry_.node_at(root_index);
  if (node == nullptr) {
    return {};
  }
  // Liveness is read through the leaf set's interned indices: an array load
  // per member instead of an id -> index hash probe.
  const LeafSet& leaves = node->leaf_set();
  std::span<const NodeId> larger = leaves.larger();
  std::span<const NodeId> smaller = leaves.smaller();
  std::vector<NodeId> candidates;
  candidates.reserve(larger.size() + smaller.size() + 1);
  for (size_t i = 0; i < larger.size(); ++i) {
    if (pastry_.alive_at(leaves.larger_indices()[i])) {
      candidates.push_back(larger[i]);
    }
  }
  for (size_t i = 0; i < smaller.size(); ++i) {
    if (pastry_.alive_at(leaves.smaller_indices()[i]) && !leaves.InLarger(smaller[i])) {
      candidates.push_back(smaller[i]);
    }
  }
  if (pastry_.alive_at(root_index)) {
    candidates.push_back(root);
  }
  // Only the first k in closeness order are needed; CloserTo is a strict
  // total order (ties broken by id), so partial_sort's prefix matches what a
  // full sort would produce.
  size_t take = std::min(k, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + static_cast<ptrdiff_t>(take),
                    candidates.end(),
                    [&](const NodeId& a, const NodeId& b) { return a.CloserTo(key, b); });
  candidates.resize(take);
  return candidates;
}

bool PastNetwork::IsAmongKClosest(const NodeId& node, const NodeId& key, size_t k) const {
  // Allocation- and sort-free equivalent of "node appears in
  // KClosestFromLeafSet(node, key, k)": since CloserTo is a strict total
  // order, node is among the k closest live candidates iff it is alive and
  // strictly fewer than k distinct live leaf-set members beat it. This runs
  // per hop of every insert route, so it is worth the hand-rolled counting.
  const PastryNetwork::NodeIndex index = pastry_.IndexOf(node);
  if (index == PastryNetwork::kInvalidIndex || !pastry_.alive_at(index)) {
    return false;
  }
  const PastryNode* pn = pastry_.node_at(index);
  if (pn == nullptr) {
    return false;
  }
  const LeafSet& leaves = pn->leaf_set();
  std::span<const NodeId> larger = leaves.larger();
  std::span<const NodeId> smaller = leaves.smaller();
  size_t closer = 0;
  for (size_t i = 0; i < larger.size(); ++i) {
    if (pastry_.alive_at(leaves.larger_indices()[i]) && larger[i].CloserTo(key, node)) {
      if (++closer >= k) {
        return false;
      }
    }
  }
  for (size_t i = 0; i < smaller.size(); ++i) {
    if (pastry_.alive_at(leaves.smaller_indices()[i]) && smaller[i].CloserTo(key, node) &&
        !leaves.InLarger(smaller[i])) {
      if (++closer >= k) {
        return false;
      }
    }
  }
  return true;
}

PlacementCandidate PastNetwork::MakePlacementCandidate(const PastNode& node,
                                                       uint64_t size) const {
  PlacementCandidate candidate;
  candidate.id = node.id();
  candidate.free_bytes = node.store().free_bytes();
  candidate.capacity_bytes = node.store().capacity();
  candidate.recent_load = node.recent_load();
  candidate.accepts_diverted = node.WouldAcceptDiverted(size);
  return candidate;
}

bool PastNetwork::ShouldStorePrimary(const PastNode& node, uint64_t size) const {
  return config_.placement.ShouldStorePrimary(MakePlacementCandidate(node, size),
                                              node.WouldAcceptPrimary(size));
}

std::optional<NodeId> PastNetwork::ChooseDiversionTarget(const NodeId& primary,
                                                         const std::vector<NodeId>& k_closest,
                                                         const FileId& file_id, uint64_t size) {
  const PastryNode* node = pastry_.node(primary);
  if (node == nullptr) {
    return std::nullopt;
  }
  // Candidates are listed in LeafSet::All() order (larger side, then the
  // smaller side minus any overlap): the order policies break ties and draw
  // by. Whether a candidate already holds the file is left to the policy's
  // probe, so a ranked policy stops at its first eligible pick instead of
  // touching every member's replica table.
  std::vector<PlacementCandidate> candidates;
  std::vector<const PastNode*> stores;
  auto consider = [&](const NodeId& id, uint32_t index) {
    if (!pastry_.alive_at(index) ||
        std::find(k_closest.begin(), k_closest.end(), id) != k_closest.end()) {
      return;  // must be live and not among the k numerically closest
    }
    if (const PastNode* pn = storage_node(id)) {
      candidates.push_back(MakePlacementCandidate(*pn, size));
      stores.push_back(pn);
    }
  };
  const LeafSet& leaves = node->leaf_set();
  std::span<const NodeId> larger = leaves.larger();
  for (size_t i = 0; i < larger.size(); ++i) {
    consider(larger[i], leaves.larger_indices()[i]);
  }
  std::span<const NodeId> smaller = leaves.smaller();
  for (size_t i = 0; i < smaller.size(); ++i) {
    if (!leaves.InLarger(smaller[i])) {
      consider(smaller[i], leaves.smaller_indices()[i]);
    }
  }

  NotHoldingFile eligibility(stores, file_id);
  RngPlacementEntropy entropy(rng_);
  std::optional<size_t> pick =
      config_.placement.ChooseDiversionTarget(candidates, eligibility, entropy);
  if (!pick || *pick >= candidates.size()) {
    return std::nullopt;
  }
  return candidates[*pick].id;
}

PastNetwork::InsertPlan PastNetwork::PlanInsertTargets(const NodeId& root,
                                                      const NodeId& key) const {
  // CloserTo is a strict total order, so the k closest are exactly the
  // first k of the k+1 closest: one leaf-set scan yields both.
  InsertPlan plan;
  plan.targets = KClosestFromLeafSet(root, key, config_.k + 1);
  if (plan.targets.size() == config_.k + 1) {
    plan.witness = plan.targets.back();
    plan.targets.pop_back();
  }
  return plan;
}

bool PastNetwork::AnyHolds(const std::vector<NodeId>& targets, const FileId& file) const {
  return std::any_of(targets.begin(), targets.end(), [&](const NodeId& t) {
    const PastNode* pn = storage_node(t);
    return pn != nullptr &&
           (pn->store().HasReplica(file) || pn->store().GetPointer(file) != nullptr);
  });
}

PastNetwork::PlaceOutcome PastNetwork::PlaceReplica(PastNode& node, const FileId& file,
                                                    ReplicaKind kind, uint64_t size,
                                                    FileCertificateRef certificate,
                                                    FileContentRef content) {
  if (!node.StoreReplica(file, kind, size, std::move(certificate), std::move(content))) {
    return PlaceOutcome::kNoRoom;
  }
  if (!node.store().Commit()) {
    node.RemoveReplica(file);
    return PlaceOutcome::kNotDurable;
  }
  total_stored_ += size;
  ins_.replicas_stored->Add(1);
  if (kind == ReplicaKind::kDiverted) {
    ins_.replicas_diverted->Add(1);
  }
  return PlaceOutcome::kStored;
}

bool PastNetwork::PlacePointer(PastNode& node, const FileId& file, const NodeId& holder,
                               PointerRole role, uint64_t size) {
  node.store().InstallPointer(file, holder, role, size);
  if (node.store().Commit()) {
    return true;
  }
  node.store().RemovePointer(file);
  return false;
}

std::optional<uint64_t> PastNetwork::DropReplica(PastNode& node, const FileId& file) {
  const ReplicaEntry* entry = node.store().GetReplica(file);
  if (entry == nullptr) {
    return std::nullopt;
  }
  if (entry->kind == ReplicaKind::kDiverted) {
    ins_.replicas_diverted->Sub(1);
  }
  ins_.replicas_stored->Sub(1);
  total_stored_ -= entry->size;
  return node.RemoveReplica(file);
}

bool PastNetwork::PointerResolves(const DiversionPointer* ptr, const FileId& file) const {
  if (ptr == nullptr || !pastry_.IsAlive(ptr->holder)) {
    return false;
  }
  const PastNode* holder = storage_node(ptr->holder);
  return holder != nullptr && holder->store().HasReplica(file);
}

std::optional<PastNetwork::NearRootServe> PastNetwork::ServeNearRoot(const NodeId& dest,
                                                                     const NodeId& key,
                                                                     const FileId& file) const {
  const PastNode* pn = storage_node(dest);
  const DiversionPointer* ptr = pn == nullptr ? nullptr : pn->store().GetPointer(file);
  if (PointerResolves(ptr, file)) {
    return NearRootServe{ptr->holder, true, pastry_.DistanceOr(dest, ptr->holder, 0.0)};
  }
  for (const NodeId& t : KClosestFromLeafSet(dest, key, config_.k)) {
    const PastNode* candidate = storage_node(t);
    if (candidate != nullptr && candidate->store().HasReplica(file)) {
      return NearRootServe{t, false, pastry_.DistanceOr(dest, t, 0.0)};
    }
  }
  return std::nullopt;
}

void PastNetwork::RecordInsert(uint64_t size, int hops, bool stored) {
  ins_.insert_attempts->Inc();
  ins_.insert_size->Observe(static_cast<double>(size));
  ins_.insert_hops->Observe(static_cast<double>(hops));
  if (stored) {
    any_file_inserted_ = true;
  } else {
    ins_.insert_failures->Inc();
  }
}

void PastNetwork::RecordLookup(const LookupResult& result) {
  ins_.lookups->Inc();
  if (result.via_diversion_pointer) {
    ins_.lookup_pointer_hops->Inc();
  }
  if (result.found()) {
    ins_.lookups_found->Inc();
    ins_.lookup_hops->Observe(static_cast<double>(result.hops));
    ins_.lookup_distance->Observe(result.distance);
    if (result.served_from_cache) {
      ins_.lookups_from_cache->Inc();
    }
  }
  // Timeouts are not misses: the file may well have been cached, the bytes
  // just never arrived.
  if (result.status != LookupStatus::kTimeout && !result.served_from_cache) {
    ins_.cache_tier_misses->Inc();
  }
}

void PastNetwork::CacheAlongPath(const std::vector<NodeId>& path, const FileId& file_id,
                                 uint64_t size, const FileContentRef& content) {
  if (config_.cache_mode == CacheMode::kNone) {
    return;
  }
  for (const NodeId& id : path) {
    PastNode* pn = storage_node(id);
    if (pn != nullptr) {
      pn->CacheFile(file_id, size, content);
    }
  }
}

double PastNetwork::utilization() const {
  if (total_capacity_ == 0) {
    return 0.0;
  }
  return static_cast<double>(total_stored_) / static_cast<double>(total_capacity_);
}

PastNetwork::ReplicaCensus PastNetwork::CountReplicas() const {
  ReplicaCensus census;
  for (const auto& [id, node] : nodes_) {
    if (!pastry_.IsAlive(id)) {
      continue;
    }
    census.replicas += node->store().replica_count();
    census.diverted += node->store().diverted_count();
  }
  return census;
}

size_t PastNetwork::CountStorageInvariantViolations(const std::vector<FileId>& files) const {
  size_t violations = 0;
  for (const FileId& f : files) {
    NodeId key = f.ToRoutingKey();
    for (const NodeId& t : pastry_.KClosestLive(key, config_.k)) {
      const PastNode* pn = storage_node(t);
      if (pn == nullptr) {
        ++violations;
        continue;
      }
      if (!pn->store().HasReplica(f) && !PointerResolves(pn->store().GetPointer(f), f)) {
        ++violations;
      }
    }
  }
  return violations;
}

uint32_t PastNetwork::CountLiveReplicas(const FileId& file_id) const {
  uint32_t count = 0;
  for (const auto& [id, node] : nodes_) {
    if (pastry_.IsAlive(id) && node->store().HasReplica(file_id)) {
      ++count;
    }
  }
  return count;
}

void PastNetwork::OnNodeJoined(const NodeId& id) {
  if (!config_.enable_maintenance || !any_file_inserted_) {
    return;
  }
  const PastryNode* node = pastry_.node(id);
  if (node == nullptr) {
    return;
  }
  std::vector<NodeId> region = node->leaf_set().All();
  region.push_back(id);
  RestoreInvariants(region);
}

void PastNetwork::OnNodeFailed(const NodeId& id) {
  // PAST-level accounting: the node's disk contents are gone.
  std::unique_ptr<PastNode>* slot = nodes_.Find(id);
  if (slot != nullptr) {
    total_capacity_ -= (*slot)->store().capacity();
    total_stored_ -= (*slot)->store().used();
    ins_.replicas_stored->Sub(static_cast<double>((*slot)->store().replica_count()));
    ins_.replicas_diverted->Sub(static_cast<double>((*slot)->store().diverted_count()));
    nodes_.Erase(id);
  }
  if (!config_.enable_maintenance || !any_file_inserted_) {
    return;
  }
  // The failed node's former leaf-set neighbors re-examine their files.
  NodeId key = id;
  std::vector<NodeId> region =
      pastry_.KClosestLive(key, static_cast<size_t>(pastry_config_.leaf_set_size));
  RestoreInvariants(region);
}

std::vector<NodeId> PastNetwork::StorageNodeIds() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) {
    (void)node;
    out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void PastNetwork::MaintenanceSweep(ThreadPool* pool) {
  if (pool != nullptr) {
    if (transport_->InFlightDeliveries() != 0) {
      throw std::logic_error("MaintenanceSweep(pool): deliveries in flight");
    }
    if (!transport_->Idle()) {
      throw std::logic_error("MaintenanceSweep(pool): transport events pending");
    }
    if (pastry_.join_batch_active()) {
      throw std::logic_error("MaintenanceSweep(pool): join batch open");
    }
  }
  if (!any_file_inserted_) {
    return;
  }
  // Age the placement load signal: each sweep halves every node's
  // recent-load tally so residual-performance ranking reacts to current
  // traffic, not lifetime totals.
  for (const auto& [id, node] : nodes_) {
    node->DecayRecentLoad();
  }
  RestoreInvariants(pastry_.live_nodes(), pool);

  // Reconcile every replica and pointer against the post-repair k-closest
  // sets. Membership change strands state where insert/reclaim/repair never
  // look again: a diverted replica whose holder moved into the k closest is
  // promoted; a replica at a node outside the k closest that no k-closest
  // node points at any more is garbage-collected (its bytes would otherwise
  // leak forever, and a pending reclaim could never converge); a pointer at
  // a node that fell out of the k+1 closest is dropped. Decisions are
  // collected on a snapshot first — mutating stores while iterating them
  // would invalidate the table iterators — so one sweep applies a
  // consistent set of actions. Collection only reads, so with a pool it runs
  // in chunks of live nodes, concatenated back in live-node order.
  enum class ActionKind { kPromote, kRemoveReplica, kRemovePointer };
  struct Action {
    ActionKind kind;
    NodeId node;
    FileId file;
  };
  const std::vector<NodeId> live = pastry_.live_nodes();
  auto collect = [&](size_t begin, size_t end) {
    std::vector<Action> found;
    for (size_t i = begin; i < end; ++i) {
      const NodeId& id = live[i];
      const PastNode* pn = storage_node(id);
      if (pn == nullptr) {
        continue;
      }
      for (const auto& [file, entry] : pn->store().replicas()) {
        std::vector<NodeId> k_closest = pastry_.KClosestLive(file.ToRoutingKey(), config_.k);
        bool among_k = std::find(k_closest.begin(), k_closest.end(), id) != k_closest.end();
        if (among_k) {
          if (entry.kind == ReplicaKind::kDiverted) {
            found.push_back(Action{ActionKind::kPromote, id, file});
          }
          continue;
        }
        bool referenced = false;
        for (const NodeId& t : k_closest) {
          const PastNode* tn = storage_node(t);
          const DiversionPointer* ptr = tn == nullptr ? nullptr : tn->store().GetPointer(file);
          if (ptr != nullptr && ptr->holder == id) {
            referenced = true;
            break;
          }
        }
        if (!referenced) {
          found.push_back(Action{ActionKind::kRemoveReplica, id, file});
        }
      }
      for (const auto& [file, ptr] : pn->store().pointers()) {
        (void)ptr;
        std::vector<NodeId> k_plus_one =
            pastry_.KClosestLive(file.ToRoutingKey(), config_.k + 1);
        if (std::find(k_plus_one.begin(), k_plus_one.end(), id) == k_plus_one.end()) {
          found.push_back(Action{ActionKind::kRemovePointer, id, file});
        }
      }
    }
    return found;
  };
  std::vector<Action> actions;
  if (pool == nullptr) {
    actions = collect(0, live.size());
  } else {
    for (std::vector<Action>& chunk : ParallelChunks(*pool, live.size(), collect)) {
      actions.insert(actions.end(), chunk.begin(), chunk.end());
    }
  }
  for (const Action& action : actions) {
    PastNode* pn = storage_node(action.node);
    if (pn == nullptr) {
      continue;
    }
    switch (action.kind) {
      case ActionKind::kPromote:
        if (pn->store().SetReplicaKind(action.file, ReplicaKind::kPrimary)) {
          ins_.replicas_diverted->Sub(1);
        }
        break;
      case ActionKind::kRemoveReplica:
        DropReplica(*pn, action.file);
        break;
      case ActionKind::kRemovePointer:
        pn->store().RemovePointer(action.file);
        break;
    }
  }
  // Sweep mutations (promotions, GC) carry no acks, but the state they leave
  // behind must still survive a crash — one commit per touched store.
  if (durable_env_ != nullptr) {
    for (const NodeId& id : live) {
      PastNode* pn = storage_node(id);
      if (pn != nullptr) {
        pn->store().Commit();
      }
    }
  }
}

void PastNetwork::RestoreInvariants(const std::vector<NodeId>& region, ThreadPool* pool) {
  RepairOp(*this).RestoreInvariants(region, pool);
}

}  // namespace past
