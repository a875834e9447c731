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
  PastNetwork::InsertPlan plan = net_.PlanInsertTargets(root_, key_);
  if (plan.targets.empty()) {
    Finish(InsertStatus::kNoSpace);
    return;
  }

  // fileId collision: a file with this id already exists — reject the later
  // insert (paper section 2).
  if (net_.AnyHolds(plan.targets, file_id)) {
    Finish(InsertStatus::kDuplicateFileId);
    return;
  }

  chain_.emplace(net_, root_, std::move(plan), file_id, size_,
                 std::make_shared<const FileCertificate>(certificate_), content_);
  StoreNext();
}

void InsertOp::StoreNext() {
  std::optional<Message> leg = chain_->NextTarget();
  if (!leg) {
    net_.CacheAlongPath(route_path_, certificate_.file_id, size_, content_);
    Finish(InsertStatus::kStored);
    return;
  }
  root_acked_ = false;
  BeginPhase(&InsertOp::AfterStore);
  SendLeg(store_ex_, *leg, &InsertOp::OnStoreReplica);
  EndPhase();
}

void InsertOp::SendLeg(Exchange& ex, const Message& leg,
                       void (InsertOp::*handler)(const Delivery&)) {
  SendTracked(ex, Direct(leg.type, leg.from, leg.to, leg.file, leg.payload_bytes), handler);
}

void InsertOp::OnStoreReplica(const Delivery&) {
  if (std::optional<Message> leg = chain_->AtTarget()) {
    SendLeg(divert_ex_, *leg, &InsertOp::OnDivertRequest);
    return;  // A acks the root once B has answered
  }
  AckRoot();
}

void InsertOp::OnDivertRequest(const Delivery&) {
  SendLeg(divert_ack_ex_, chain_->AtDiversionTarget(), &InsertOp::OnDivertAck);
}

void InsertOp::OnDivertAck(const Delivery&) {
  if (std::optional<Message> leg = chain_->AtDiverter()) {
    SendLeg(witness_ex_, *leg, &InsertOp::OnWitnessInstall);
  }
  result_.replicas_diverted += chain_->stored() ? 1 : 0;
  AckRoot();
}

void InsertOp::OnWitnessInstall(const Delivery&) { chain_->AtWitness(); }

void InsertOp::AckRoot() {
  // A signs a store receipt for every replica it is responsible for, its
  // own or the one its diverter pointer names.
  const NodeId& a = chain_->target();
  if (chain_->stored()) {
    result_.receipts.push_back(net_.storage_node(a)->MakeStoreReceipt(certificate_.file_id));
  }
  SendTracked(root_ack_ex_, Direct(MessageType::kAck, a, root_, certificate_.file_id, 0),
              &InsertOp::OnRootAck);
}

void InsertOp::OnRootAck(const Delivery&) { root_acked_ = true; }

void InsertOp::AfterStore() {
  if (root_acked_ && chain_->stored()) {
    StoreNext();
    return;
  }
  // A declined and so did its diversion target (or it had none), or a
  // message of the exchange was lost before the root ack landed: the entire
  // file is diverted — replicas stored so far are discarded and a negative
  // ack goes back to the client (paper section 3.3.1).
  Rollback();
  Finish(root_acked_ ? InsertStatus::kNoSpace : InsertStatus::kTimeout);
}

void InsertOp::Rollback() {
  if (chain_) {
    chain_->Rollback();
  }
  result_.replicas_diverted = 0;
  result_.receipts.clear();
}

void InsertOp::Finish(InsertStatus status) {
  result_.status = status;
  // One replica per target that acked, at A or at the B it diverted to.
  result_.replicas_stored = static_cast<uint32_t>(result_.receipts.size());
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
