#include "src/past/ops/reclaim_op.h"

#include <utility>

namespace past {

ReclaimOp::ReclaimOp(PastNetwork& net, const NodeId& origin,
                     const ReclaimCertificate& certificate, Callback callback,
                     Callback on_cancel)
    : AsyncOp(net), origin_(origin), certificate_(certificate),
      callback_(std::move(callback)), on_cancel_(std::move(on_cancel)) {}

void ReclaimOp::Start() {
  net_.metrics_.GetCounter("past.reclaim.requests").Inc();

  if (!certificate_.VerifySignature()) {
    Finish(ReclaimStatus::kBadCertificate);
    return;
  }

  NodeId key = certificate_.file_id.ToRoutingKey();
  size_t k = net_.config_.k;
  RouteResult route = net_.pastry_.Route(
      origin_, key, [&](const NodeId& n) { return net_.IsAmongKClosest(n, key, k); });
  root_ = route.destination();
  route_hops_ = route.hops();

  // The reclaim certificate rides the route to the root. If it is lost the
  // operation observes nothing stored — the owner retries.
  Message request;
  request.type = MessageType::kReclaimRequest;
  request.from = origin_;
  request.to = root_;
  request.file = certificate_.file_id;
  request.payload_bytes = 0;
  request.hops = route.hops();
  request.distance = route.distance;

  BeginPhase(&ReclaimOp::AfterRequest);
  SendTracked(request_ex_, request, nullptr);
  EndPhase();
}

void ReclaimOp::AfterRequest() {
  if (!request_ex_.completed()) {
    Finish(ReclaimStatus::kNotFound);
    return;
  }
  NodeId key = certificate_.file_id.ToRoutingKey();
  targets_ = net_.KClosestFromLeafSet(root_, key, net_.config_.k + 1);
  target_index_ = 0;
  TargetNext();
}

void ReclaimOp::ReclaimAt(const NodeId& node_id) {
  const FileId& file_id = certificate_.file_id;
  PastNode* pn = net_.storage_node(node_id);
  if (pn == nullptr) {
    return;
  }
  // Any cached copy at a visited node is dropped alongside the replica so
  // a later repair pass cannot mistake it for live content. (Caches at
  // nodes the reclaim never visits may keep stale copies — the paper's
  // weak reclaim semantics.)
  if (pn->cache() != nullptr) {
    pn->cache()->Remove(file_id);
  }
  const ReplicaEntry* entry = pn->store().GetReplica(file_id);
  if (entry != nullptr) {
    // Only the file's legitimate owner may reclaim it.
    const FileCertificateRef stored_cert = pn->store().GetCertificate(file_id);
    if (stored_cert == nullptr || !(stored_cert->owner == certificate_.owner)) {
      owner_mismatch_ = true;
      return;
    }
    uint64_t size = *net_.DropReplica(*pn, file_id);
    ++result_.replicas_reclaimed;
    result_.bytes_reclaimed += size;
    // The reclaim receipt credits the owner's quota, so the removal record
    // must be durable before the receipt is issued: a crash after an issued
    // receipt must never resurrect the file as live.
    if (pn->store().Commit()) {
      result_.receipts.push_back(pn->MakeReclaimReceipt(file_id, size));
    }
  }
}

void ReclaimOp::TargetNext() {
  while (target_index_ < targets_.size() &&
         net_.storage_node(targets_[target_index_]) == nullptr) {
    ++target_index_;
  }
  if (target_index_ == targets_.size()) {
    if (owner_mismatch_) {
      Finish(ReclaimStatus::kNotOwner);
      return;
    }
    Finish(result_.replicas_reclaimed > 0 ? ReclaimStatus::kReclaimed
                                          : ReclaimStatus::kNotFound);
    return;
  }

  current_target_ = targets_[target_index_];
  ++target_index_;

  BeginPhase(&ReclaimOp::TargetNext);
  SendTracked(target_ex_,
              Direct(MessageType::kReclaimRequest, root_, current_target_, certificate_.file_id, 0),
              &ReclaimOp::OnTargetReply);
  EndPhase();
}

void ReclaimOp::OnTargetReply(const Delivery&) {
  const NodeId t = current_target_;
  PastNode* pn = net_.storage_node(t);
  if (pn == nullptr) {
    return;
  }
  // Follow diversion pointers to the actual replica holder first.
  // Witness pointers are chased too: after the diverter fails, the
  // witness copy may be the only remaining reference, and skipping
  // it would leave the diverted replica alive for maintenance to
  // re-replicate from (reclaim resurrection).
  const DiversionPointer* ptr = pn->store().GetPointer(certificate_.file_id);
  if (ptr != nullptr) {
    if (net_.pastry_.IsAlive(ptr->holder)) {
      pointer_holder_ = ptr->holder;
      SendTracked(holder_ex_,
                  Direct(MessageType::kReclaimRequest, t, pointer_holder_, certificate_.file_id, 0),
                  &ReclaimOp::OnHolderReply);
    }
    pn->store().RemovePointer(certificate_.file_id);
  }
  ReclaimAt(t);
  // Any pointer removal above becomes durable before this target acks the
  // root (ReclaimAt already committed its own removal with the receipt).
  pn->store().Commit();
  SendTracked(ack_ex_, Direct(MessageType::kAck, t, root_, certificate_.file_id, 0), nullptr);
}

void ReclaimOp::OnHolderReply(const Delivery&) { ReclaimAt(pointer_holder_); }

void ReclaimOp::Finish(ReclaimStatus status) {
  result_.status = status;
  if (status == ReclaimStatus::kReclaimed) {
    net_.metrics_.GetCounter("past.reclaim.reclaimed").Inc();
    net_.metrics_.GetCounter("past.reclaim.bytes").Inc(result_.bytes_reclaimed);
  }
  if (net_.trace_sink() != nullptr) {
    obs::OpTrace trace;
    trace.kind = obs::TraceOpKind::kReclaim;
    trace.file_id = certificate_.file_id.ToHex();
    trace.node = root_.ToHex();
    trace.hops = route_hops_;
    trace.status = ToString(status);
    trace.size = result_.bytes_reclaimed;
    trace.messages = messages_;
    trace.latency_ms = latency_ms_;
    net_.EmitTrace(std::move(trace));
  }
  FinishOp();
}

void ReclaimOp::OnFinish() {
  if (callback_) {
    callback_(result_);
  }
}

void ReclaimOp::OnCancel() {
  if (on_cancel_) {
    on_cancel_(result_);
  }
}

}  // namespace past
