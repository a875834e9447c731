#include "src/past/ops/lookup_op.h"

#include <optional>
#include <utility>

namespace past {

LookupOp::LookupOp(PastNetwork& net, const NodeId& origin, const FileId& file_id,
                   Callback callback)
    : AsyncOp(net), origin_(origin), file_id_(file_id), callback_(std::move(callback)) {}

void LookupOp::Start() {
  NodeId key = file_id_.ToRoutingKey();

  auto stop = [&](const NodeId& n) {
    PastNode* pn = net_.storage_node(n);
    if (pn == nullptr) {
      return false;
    }
    if (pn->store().HasReplica(file_id_)) {
      served_ = n;
      from_cache_ = false;
      return true;
    }
    if (pn->cache() != nullptr && pn->cache()->Lookup(file_id_)) {
      served_ = n;
      from_cache_ = true;
      return true;
    }
    return false;
  };

  RouteResult route = net_.pastry_.Route(origin_, key, stop);
  result_.hops = route.hops();
  result_.distance = route.distance;
  if (!route.delivered) {
    Finish();  // swallowed by a malicious node: lookup fails, retry
    return;
  }
  bool found = route.stopped_early;

  if (!found && !route.path.empty()) {
    // The route ended at the numerically closest node without finding a
    // replica en route; a diverted replica is reachable through its pointer
    // at the cost of one extra hop (paper section 3.3).
    std::optional<PastNetwork::NearRootServe> near =
        net_.ServeNearRoot(route.destination(), key, file_id_);
    if (near) {
      served_ = near->holder;
      from_cache_ = false;
      found = true;
      result_.via_diversion_pointer = near->via_pointer;
      net_.pastry_.stats().RecordHop(near->distance);
      result_.hops += 1;
      result_.distance += near->distance;
    }
  }

  if (!found) {
    Finish();
    return;
  }
  route_path_ = std::move(route.path);
  StartFetch();
}

void LookupOp::StartFetch() {
  // The fetch exchange. The request rides the located route (hops and
  // distance as accumulated above, including any pointer hop); the
  // reply carries the file bytes — its latency models the transfer, the
  // path cost having been charged on the request leg. Request + reply
  // together reproduce the classic fetch-latency formula
  // FetchLatencyMs(hops, distance, size).
  Message request;
  request.type = MessageType::kLookupRequest;
  request.from = origin_;
  request.to = served_;
  request.file = file_id_;
  request.payload_bytes = 0;
  request.hops = result_.hops;
  request.distance = result_.distance;

  BeginPhase(&LookupOp::AfterFetch);
  SendTracked(request_ex_, request, &LookupOp::OnFetchRequest);
  EndPhase();
}

void LookupOp::OnFetchRequest(const Delivery&) {
  // At the serving node: read the bytes and reply straight to the origin.
  PastNode* server = net_.storage_node(served_);
  if (server == nullptr) {
    return;
  }
  server->NoteServedOp();
  if (from_cache_) {
    result_.file_size = server->cache()->SizeOf(file_id_).value_or(0);
    result_.content = server->cache()->ContentOf(file_id_);
  } else {
    const NodeStore& store = server->store();
    const ReplicaEntry* entry = store.GetReplica(file_id_);
    const ReplicaPayload* payload = entry == nullptr ? nullptr : store.PayloadOf(*entry);
    result_.file_size = entry == nullptr ? 0 : entry->size;
    result_.content = payload == nullptr ? nullptr : payload->content;
  }
  Message reply;
  reply.type = MessageType::kFetchReply;
  reply.from = served_;
  reply.to = origin_;
  reply.file = file_id_;
  reply.payload_bytes = result_.file_size;
  reply.hops = 0;  // path cost charged on the request leg
  reply.distance = 0.0;
  SendTracked(reply_ex_, reply, nullptr);
}

void LookupOp::AfterFetch() {
  if (!reply_ex_.completed()) {
    // Request or reply lost: the file was located but never arrived.
    result_.file_size = 0;
    result_.content = nullptr;
    result_.status = LookupStatus::kTimeout;
    Finish();
    return;
  }

  result_.status = LookupStatus::kFound;
  result_.served_from_cache = from_cache_;
  result_.served_by = served_;
  net_.CacheAlongPath(route_path_, file_id_, result_.file_size, result_.content);
  Finish();
}

void LookupOp::Finish() {
  net_.RecordLookup(result_);
  result_.messages = messages_;
  result_.latency_ms = latency_ms_;
  if (net_.trace_sink() != nullptr) {
    obs::OpTrace trace;
    trace.kind = obs::TraceOpKind::kLookup;
    trace.file_id = file_id_.ToHex();
    trace.status = ToString(result_.status);
    trace.node = result_.served_by.ToHex();
    trace.size = result_.file_size;
    trace.hops = result_.hops;
    trace.distance = result_.distance;
    trace.from_cache = result_.served_from_cache;
    trace.diverted = result_.via_diversion_pointer;
    trace.messages = messages_;
    trace.latency_ms = latency_ms_;
    net_.EmitTrace(std::move(trace));
  }
  FinishOp();
}

void LookupOp::OnFinish() {
  if (callback_) {
    callback_(result_);
  }
}

}  // namespace past
