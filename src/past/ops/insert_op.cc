#include "src/past/ops/insert_op.h"

#include <utility>

namespace past {

InsertOp::InsertOp(PastNetwork& net, const NodeId& origin, const FileCertificate& certificate,
                   uint64_t size, FileContentRef content, Callback callback)
    : AsyncOp(net), origin_(origin), certificate_(certificate), size_(size),
      content_(std::move(content)), callback_(std::move(callback)),
      key_(certificate.file_id.ToRoutingKey()) {}

void InsertOp::Start() {
  // Route toward the fileId; the first node that finds itself among the k
  // numerically closest takes responsibility (paper section 2.2).
  size_t k = net_.config_.k;
  RouteResult route = net_.pastry_.Route(
      origin_, key_, [&](const NodeId& n) { return net_.IsAmongKClosest(n, key_, k); });
  result_.route_hops = route.hops();
  root_ = route.destination();

  // A malicious node swallowed the request: the attempt fails and the
  // client's re-salted retry takes a different route (section 2.3).
  if (!route.delivered) {
    Finish(InsertStatus::kNoSpace);
    return;
  }
  route_path_ = std::move(route.path);

  // The insert request (file bytes included) rides the route just computed.
  // Per-hop traffic was already accounted inside Route(); this message
  // carries the route shape so SimTransport can charge the full path
  // latency. A dropped request is the first timeout opportunity.
  Message request;
  request.type = MessageType::kInsertRequest;
  request.from = origin_;
  request.to = root_;
  request.file = certificate_.file_id;
  request.payload_bytes = size_;
  request.hops = result_.route_hops;
  request.distance = route.distance;

  BeginPhase(&InsertOp::AfterRequest);
  SendTracked(request_ex_, request, nullptr);
  EndPhase();
}

void InsertOp::AfterRequest() {
  if (!request_ex_.completed()) {
    Finish(InsertStatus::kTimeout);
    return;
  }

  // --- from here on, decisions are the root's (reads are root-local) ---

  const FileId& file_id = certificate_.file_id;

  // The root verifies the file certificate — and, when the bytes travel with
  // the request, recomputes the content hash — before accepting
  // responsibility (paper section 2.2).
  if (!certificate_.VerifySignature() ||
      (content_ != nullptr && !certificate_.VerifyContent(*content_))) {
    Finish(InsertStatus::kBadCertificate);
    return;
  }

  // The targets, plus the witness node C that shadows diversion pointers
  // so that the diverting node A is not a single point of failure.
  plan_ = net_.PlanInsertTargets(root_, key_);
  if (plan_.targets.empty()) {
    Finish(InsertStatus::kNoSpace);
    return;
  }

  // fileId collision: a file with this id already exists — reject the later
  // insert (paper section 2).
  if (net_.AnyHolds(plan_.targets, file_id)) {
    Finish(InsertStatus::kDuplicateFileId);
    return;
  }

  cert_ref_ = std::make_shared<const FileCertificate>(certificate_);
  target_index_ = 0;
  StoreNext();
}

void InsertOp::AckRoot(const NodeId& from_node, bool ok) {
  // Exactly one root ack per store phase, so the verdict can ride in a
  // member until the delivery lands; a straggler from an earlier phase is
  // epoch-filtered before it could read a newer value.
  ack_ok_ = ok;
  SendTracked(root_ack_ex_,
              Direct(MessageType::kAck, from_node, root_, certificate_.file_id, 0),
              &InsertOp::OnRootAck);
}

void InsertOp::OnRootAck(const Delivery&) {
  outcome_ = ack_ok_ ? Outcome::kStored : Outcome::kDeclined;
}

void InsertOp::StoreNext() {
  while (target_index_ < plan_.targets.size() &&
         net_.storage_node(plan_.targets[target_index_]) == nullptr) {
    ++target_index_;
  }
  if (target_index_ == plan_.targets.size()) {
    net_.CacheAlongPath(route_path_, certificate_.file_id, size_, content_);
    Finish(InsertStatus::kStored);
    return;
  }

  // One store exchange per target, driven to completion before the next
  // (the settle-era code was sequential too). All per-exchange state lives
  // in the op, keyed to this phase; AfterStore() inspects it.
  const NodeId t = plan_.targets[target_index_];
  outcome_ = Outcome::kPending;
  divert_target_.reset();

  BeginPhase(&InsertOp::AfterStore);
  // kStoreReplica carries the file bytes — the same data message the
  // pre-fabric code charged with RecordMessage(size).
  SendTracked(store_ex_, Direct(MessageType::kStoreReplica, root_, t, certificate_.file_id, size_),
              &InsertOp::OnStoreReplica);
  EndPhase();
}

void InsertOp::OnStoreReplica(const Delivery&) {
  const NodeId t = plan_.targets[target_index_];
  PastNode* pn = net_.storage_node(t);
  if (pn == nullptr) {
    AckRoot(t, false);
    return;
  }
  if (net_.ShouldStorePrimary(t, size_)) {
    switch (net_.PlaceReplica(*pn, certificate_.file_id, ReplicaKind::kPrimary, size_, cert_ref_,
                              content_)) {
      case PastNetwork::PlaceOutcome::kStored:
        created_.push_back({t, /*is_pointer=*/false});
        pn->NoteServedOp();
        ++result_.replicas_stored;
        result_.receipts.push_back(pn->MakeStoreReceipt(certificate_.file_id));
        AckRoot(t, true);
        return;
      case PastNetwork::PlaceOutcome::kNotDurable:
        // A node whose log cannot commit declines outright; it does not
        // divert a replica it could not make durable itself.
        AckRoot(t, false);
        return;
      case PastNetwork::PlaceOutcome::kNoRoom:
        break;
    }
  }

  if (net_.config_.enable_replica_diversion) {
    divert_target_ = net_.ChooseDiversionTarget(t, plan_.targets, certificate_.file_id, size_);
    if (divert_target_) {
      // A asks leaf-set member B to hold the replica (an RPC in the
      // legacy accounting, paper section 3.3).
      SendTracked(divert_ex_,
                  Direct(MessageType::kDivertRequest, t, *divert_target_, certificate_.file_id,
                         size_),
                  &InsertOp::OnDivertReply);
      return;  // the ack to the root comes from the diversion chain
    }
  }
  AckRoot(t, false);
}

void InsertOp::OnDivertReply(const Delivery&) {
  const NodeId t = plan_.targets[target_index_];
  PastNode* b = net_.storage_node(*divert_target_);
  stored_at_b_ = b != nullptr && b->WouldAcceptDiverted(size_) &&
                 net_.PlaceReplica(*b, certificate_.file_id, ReplicaKind::kDiverted, size_,
                                   cert_ref_, content_) == PastNetwork::PlaceOutcome::kStored;
  if (stored_at_b_) {
    created_.push_back({*divert_target_, /*is_pointer=*/false});
    b->NoteServedOp();
    ++result_.replicas_stored;
    ++result_.replicas_diverted;
  }
  // B's answer travels back to A, which completes the exchange: pointer +
  // witness + receipt on success.
  SendTracked(divert_ack_ex_,
              Direct(MessageType::kAck, *divert_target_, t, certificate_.file_id, 0),
              &InsertOp::OnDivertAck);
}

void InsertOp::OnDivertAck(const Delivery&) {
  const NodeId t = plan_.targets[target_index_];
  PastNode* a = net_.storage_node(t);
  // Node A keeps a pointer to B and issues the store receipt as usual;
  // node C shadows the pointer. A's pointer must be durable before its
  // receipt: after a crash at A nothing else among the k closest would
  // reference B's copy.
  if (!stored_at_b_ || a == nullptr ||
      !net_.PlacePointer(*a, certificate_.file_id, *divert_target_, PointerRole::kDiverter,
                         size_)) {
    AckRoot(t, false);
    return;
  }
  created_.push_back({t, /*is_pointer=*/true});
  if (plan_.witness && net_.storage_node(*plan_.witness) != nullptr) {
    SendTracked(witness_ex_,
                Direct(MessageType::kInstallPointer, t, *plan_.witness, certificate_.file_id, 0),
                &InsertOp::OnWitnessInstall);
  }
  result_.receipts.push_back(a->MakeStoreReceipt(certificate_.file_id));
  AckRoot(t, true);
}

void InsertOp::OnWitnessInstall(const Delivery&) {
  PastNode* c = net_.storage_node(*plan_.witness);
  if (c != nullptr && net_.PlacePointer(*c, certificate_.file_id, *divert_target_,
                                        PointerRole::kWitness, size_)) {
    created_.push_back({*plan_.witness, /*is_pointer=*/true});
  }
}

void InsertOp::AfterStore() {
  if (outcome_ == Outcome::kStored) {
    ++target_index_;
    StoreNext();
    return;
  }
  // This primary declined and its chosen diversion target declined too
  // (kDeclined), or a message of the exchange was lost (kPending): the
  // entire file is diverted — replicas stored so far are discarded and a
  // negative ack goes back to the client (paper section 3.3.1).
  Rollback();
  Finish(outcome_ == Outcome::kDeclined ? InsertStatus::kNoSpace : InsertStatus::kTimeout);
}

void InsertOp::Rollback() {
  net_.RollbackInsert(certificate_.file_id, created_);
  created_.clear();
  result_.replicas_stored = 0;
  result_.replicas_diverted = 0;
  result_.receipts.clear();
}

void InsertOp::Finish(InsertStatus status) {
  result_.status = status;
  net_.RecordInsert(size_, result_.route_hops, result_.stored());
  result_.messages = messages_;
  result_.latency_ms = latency_ms_;
  if (net_.trace_sink() != nullptr) {
    obs::OpTrace trace;
    trace.kind = obs::TraceOpKind::kInsert;
    trace.file_id = certificate_.file_id.ToHex();
    trace.size = size_;
    trace.node = root_.ToHex();
    trace.status = ToString(status);
    trace.hops = result_.route_hops;
    trace.diverted = result_.replicas_diverted > 0;
    trace.messages = messages_;
    trace.latency_ms = latency_ms_;
    net_.EmitTrace(std::move(trace));
  }
  FinishOp();
}

void InsertOp::OnFinish() {
  if (callback_) {
    callback_(result_);
  }
}

void InsertOp::OnCancel() {
  // Abandoning a half-done insert must not leak replicas: discard whatever
  // this attempt created, exactly like the timeout path.
  Rollback();
}

}  // namespace past
