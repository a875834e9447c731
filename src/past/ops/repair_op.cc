#include "src/past/ops/repair_op.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

namespace past {

void RepairOp::SendSettled(const Message& msg, const std::function<void()>& at_destination) {
  // Settle() returns only after every copy of `msg` was delivered or
  // dropped, so capturing this frame by reference is safe.
  bool delivered = false;
  transport_.Send(msg, [&delivered, &at_destination](const Delivery&) {
    if (!delivered) {
      delivered = true;
      at_destination();
    }
  });
  transport_.Settle();
}

void RepairOp::RestoreInvariants(const std::vector<NodeId>& region, ThreadPool* pool) {
  std::unordered_set<FileId, FileIdHash> files;
  for (const NodeId& id : region) {
    const PastNode* pn = net_.storage_node(id);
    if (pn == nullptr) {
      continue;
    }
    for (const auto& [f, entry] : pn->store().replicas()) {
      (void)entry;
      files.insert(f);
    }
    for (const auto& [f, ptr] : pn->store().pointers()) {
      (void)ptr;
      files.insert(f);
    }
  }
  if (pool == nullptr) {
    for (const FileId& f : files) {
      if (NeedsRepair(f)) {
        RepairFile(f);
      }
    }
    return;
  }
  const std::vector<FileId> ordered(files.begin(), files.end());
  std::vector<uint8_t> needs(ordered.size());
  ParallelChunks(*pool, ordered.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      needs[i] = NeedsRepair(ordered[i]) ? 1 : 0;
    }
  });
  for (size_t i = 0; i < ordered.size(); ++i) {
    if (needs[i] != 0) {
      RepairFile(ordered[i]);
    }
  }
}

bool RepairOp::NeedsRepair(const FileId& file_id) const {
  NodeId key = file_id.ToRoutingKey();
  NodeId root = net_.pastry_.ClosestLive(key);
  if (net_.pastry_.node(root) == nullptr) {
    return false;
  }
  // KClosestFromLeafSet lists live nodes only (the live root among them);
  // the conservative answer for an empty list keeps RepairFile in charge.
  std::vector<NodeId> k_closest = net_.KClosestFromLeafSet(root, key, net_.config_.k);
  if (k_closest.empty()) {
    return true;
  }
  for (const NodeId& n : k_closest) {
    const PastNode* pn = net_.storage_node(n);
    if (pn == nullptr || !pn->store().HasReplica(file_id)) {
      return true;
    }
  }
  return false;
}

void RepairOp::RepairFile(const FileId& file_id) {
  NodeId key = file_id.ToRoutingKey();
  NodeId root = net_.pastry_.ClosestLive(key);
  const PastryNode* root_node = net_.pastry_.node(root);
  if (root_node == nullptr) {
    return;
  }
  std::vector<NodeId> k_closest = net_.KClosestFromLeafSet(root, key, net_.config_.k);

  // Discover live replica holders in the neighborhood: the k closest, the
  // root's wider leaf set (nodes that recently ceased to be among the k
  // closest may still hold replicas), and pointer targets.
  std::vector<NodeId> holders;
  auto add_holder = [&](const NodeId& n) {
    if (!net_.pastry_.IsAlive(n)) {
      return;
    }
    const PastNode* pn = net_.storage_node(n);
    if (pn != nullptr && pn->store().HasReplica(file_id) &&
        std::find(holders.begin(), holders.end(), n) == holders.end()) {
      holders.push_back(n);
    }
  };
  for (const NodeId& n : k_closest) {
    add_holder(n);
  }
  for (const NodeId& n : root_node->leaf_set().All()) {
    add_holder(n);
  }
  for (const NodeId& n : k_closest) {
    const PastNode* pn = net_.storage_node(n);
    if (pn != nullptr) {
      const DiversionPointer* ptr = pn->store().GetPointer(file_id);
      if (ptr != nullptr) {
        add_holder(ptr->holder);
      }
    }
  }

  if (holders.empty()) {
    // All k replicas (and any diverted copies) vanished inside one recovery
    // period — the file is lost. Drop dangling pointers.
    net_.ins_.files_lost->Inc();
    obs::OpTrace lost;
    lost.kind = obs::TraceOpKind::kMaintenance;
    lost.file_id = file_id.ToHex();
    lost.status = "file_lost";
    net_.EmitTrace(std::move(lost));
    for (const NodeId& n : k_closest) {
      PastNode* pn = net_.storage_node(n);
      if (pn != nullptr) {
        pn->store().RemovePointer(file_id);
      }
    }
    return;
  }

  const NodeStore& sample_store = net_.storage_node(holders.front())->store();
  const ReplicaEntry* sample = sample_store.GetReplica(file_id);
  uint64_t size = sample->size;
  const ReplicaPayload* payload = sample_store.PayloadOf(*sample);
  FileCertificateRef certificate = payload == nullptr ? nullptr : payload->certificate;
  FileContentRef content = payload == nullptr ? nullptr : payload->content;
  // The holder that pushes replica data to repair targets.
  NodeId source = holders.front();

  // Pushes the replica from `source` to `t` as a `kind` copy, which `t`
  // admits under the matching threshold (t_pri or t_div); returns true if
  // `t` stored it (false on decline or a dropped message).
  auto push_replica = [&](const NodeId& t, ReplicaKind kind) {
    bool stored = false;
    SendSettled(Direct(MessageType::kRepairStore, source, t, file_id, size),
                [&, t, kind] {
                  PastNode* pn = net_.storage_node(t);
                  bool admits = pn != nullptr && (kind == ReplicaKind::kPrimary
                                                      ? pn->WouldAcceptPrimary(size)
                                                      : pn->WouldAcceptDiverted(size));
                  if (admits && net_.PlaceReplica(*pn, file_id, kind, size, certificate,
                                                  content) == PastNetwork::PlaceOutcome::kStored) {
                    net_.ins_.replicas_recreated->Inc();
                    stored = true;
                  }
                });
    return stored;
  };

  // Instructs `t` to install a diversion pointer at `target`.
  auto install_pointer = [&](const NodeId& t, const NodeId& target, bool count_metric) {
    SendSettled(Direct(MessageType::kRepairPointer, root, t, file_id, 0),
                [&, t, target, count_metric] {
                  PastNode* pn = net_.storage_node(t);
                  if (pn != nullptr &&
                      net_.PlacePointer(*pn, file_id, target, PointerRole::kDiverter, size) &&
                      count_metric) {
                    net_.ins_.maintenance_pointers->Inc();
                  }
                });
  };

  // Pass 1: every one of the k closest must hold the replica or a valid
  // pointer to a live holder.
  for (const NodeId& t : k_closest) {
    PastNode* pn = net_.storage_node(t);
    if (pn == nullptr) {
      continue;
    }
    if (pn->store().HasReplica(file_id)) {
      continue;
    }
    const DiversionPointer* ptr = pn->store().GetPointer(file_id);
    if (net_.PointerResolves(ptr, file_id)) {
      continue;
    }
    if (ptr != nullptr) {
      pn->store().RemovePointer(file_id);
    }
    // Prefer acquiring a real replica; otherwise install a pointer to an
    // existing holder (semantically identical to replica diversion, paper
    // section 3.5: the joining node installs a pointer and migrates later).
    if (push_replica(t, ReplicaKind::kPrimary)) {
      if (std::find(holders.begin(), holders.end(), t) == holders.end()) {
        holders.push_back(t);
      }
      continue;
    }
    // Point at a holder outside the k closest if possible (that holder plays
    // the diverted-replica role), else at any holder.
    NodeId target = holders.front();
    for (const NodeId& h : holders) {
      if (std::find(k_closest.begin(), k_closest.end(), h) == k_closest.end()) {
        target = h;
        break;
      }
    }
    install_pointer(t, target, /*count_metric=*/true);
  }

  // Pass 2: restore the replication level to k when space allows. First try
  // k-closest members without a replica, then diversion into their leaf sets.
  uint32_t live = static_cast<uint32_t>(holders.size());
  if (live >= net_.config_.k) {
    return;
  }
  for (const NodeId& t : k_closest) {
    if (live >= net_.config_.k) {
      break;
    }
    PastNode* pn = net_.storage_node(t);
    if (pn == nullptr || pn->store().HasReplica(file_id)) {
      continue;
    }
    if (push_replica(t, ReplicaKind::kPrimary)) {
      PastNode* stored_node = net_.storage_node(t);
      if (stored_node != nullptr) {
        stored_node->store().RemovePointer(file_id);
      }
      ++live;
      holders.push_back(t);
    }
  }
  for (const NodeId& t : k_closest) {
    if (live >= net_.config_.k) {
      break;
    }
    PastNode* pn = net_.storage_node(t);
    if (pn == nullptr || pn->store().HasReplica(file_id)) {
      continue;
    }
    std::optional<NodeId> target = net_.ChooseDiversionTarget(t, k_closest, file_id, size);
    if (!target) {
      continue;
    }
    // Diverted re-creation: push the data to the leaf-set member, then have
    // the k-closest node point at it.
    if (!push_replica(*target, ReplicaKind::kDiverted)) {
      continue;
    }
    install_pointer(t, *target, /*count_metric=*/false);
    ++live;
    holders.push_back(*target);
  }
}

}  // namespace past
