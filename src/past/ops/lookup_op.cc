#include "src/past/ops/lookup_op.h"

#include <utility>

namespace past {

LookupOp::LookupOp(PastNetwork& net, const NodeId& origin, const FileId& file_id,
                   Callback callback)
    : AsyncOp(net), origin_(origin), file_id_(file_id), callback_(std::move(callback)) {}

void LookupOp::Start() {
  if (net_.coop_active_) {
    // Only probe the broker when the origin cannot serve the file itself —
    // a local replica or cached copy stops the route at hop zero for free.
    PastNode* pn = net_.storage_node(origin_);
    bool local = pn != nullptr &&
                 (pn->store().HasReplica(file_id_) ||
                  (pn->cache() != nullptr && pn->cache()->SizeOf(file_id_).has_value()));
    if (!local) {
      StartCoopProbe();
      return;
    }
  }
  StartRoute();
}

void LookupOp::StartCoopProbe() {
  if (!net_.pastry_.IsAlive(origin_)) {
    // A lookup issued from a failed node: the overlay still remembers its
    // leaf set, but it has no topology location to charge probes against.
    // Fall through to the route, which fails such lookups cleanly.
    StartRoute();
    return;
  }
  std::optional<NodeId> broker = net_.CoopBroker(origin_, file_id_);
  if (!broker) {
    StartRoute();  // no live leaf-set neighbor to ask
    return;
  }
  broker_ = *broker;
  net_.ins_.coop_probes->Inc();
  probe_start_ms_ = latency_ms_;

  Message probe = Direct(MessageType::kCacheProbe, origin_, broker_, file_id_, /*payload_bytes=*/0);
  BeginPhase(&LookupOp::AfterCoopProbe);
  SendTracked(probe_ex_, probe, &LookupOp::OnCacheProbe);
  EndPhase();
}

void LookupOp::OnCacheProbe(const Delivery&) {
  // At the broker: its own cached copy wins, else its directory shard.
  coop_holder_ = net_.ResolveCoopProbe(broker_, file_id_);
  Message reply = Direct(MessageType::kCacheReply, broker_, origin_, file_id_, /*payload_bytes=*/0);
  SendTracked(probe_reply_ex_, reply, nullptr);
}

void LookupOp::AfterCoopProbe() {
  net_.ins_.coop_probe_latency->Observe(latency_ms_ - probe_start_ms_);
  if (!probe_reply_ex_.completed()) {
    // Probe or reply lost in transit: charge the timeout and fall back to
    // the route — the probe is strictly best-effort.
    net_.ins_.coop_timeouts->Inc();
    StartRoute();
    return;
  }
  if (!coop_holder_) {
    StartRoute();  // clean miss at the broker
    return;
  }
  // Brokered hit: fetch the cached copy from the holder directly. One
  // logical hop; the origin cache-fills on success (route_path_ = {origin}).
  net_.ins_.coop_forwards->Inc();
  served_ = *coop_holder_;
  if (!net_.pastry_.IsAlive(origin_) || !net_.pastry_.IsAlive(served_)) {
    // Origin or holder failed between the probe and the charge (possible
    // under overlapped ops). The probe is best-effort: abandon the brokered
    // hop and fall back to the route, which handles dead endpoints cleanly.
    served_ = NodeId();
    StartRoute();
    return;
  }
  from_cache_ = true;
  coop_attempt_ = true;
  route_path_ = {origin_};
  double d = net_.pastry_.topology().Distance(origin_, served_);
  net_.pastry_.stats().RecordHop(d);
  result_.hops += 1;
  result_.distance += d;
  StartFetch();
}

void LookupOp::StartRoute() {
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
  result_.hops += route.hops();
  result_.distance += route.distance;
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
  // distance as accumulated above, including any pointer/probe hop); the
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
  if (coop_attempt_) {
    // The brokered pointer may have gone stale between the advertise and
    // this fetch (eviction, reclaim, replica displacement). A stale hit
    // degrades to a clean miss — the reply says "no bytes" and the origin
    // falls back to routing; it never serves wrong or missing content.
    if (server->cache() == nullptr || !server->cache()->Lookup(file_id_)) {
      coop_stale_ = true;
      result_.file_size = 0;
      result_.content = nullptr;
    } else {
      result_.file_size = server->cache()->SizeOf(file_id_).value_or(0);
      result_.content = server->cache()->ContentOf(file_id_);
    }
  } else if (from_cache_) {
    result_.file_size = server->cache()->SizeOf(file_id_).value_or(0);
    result_.content = server->cache()->ContentOf(file_id_);
  } else {
    const ReplicaEntry* entry = server->store().GetReplica(file_id_);
    result_.file_size = entry == nullptr ? 0 : entry->size;
    result_.content = entry == nullptr ? nullptr : server->store().GetContent(file_id_);
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
  if (coop_attempt_ && (coop_stale_ || !reply_ex_.completed())) {
    // Brokered fetch came back empty (stale pointer) or never came back at
    // all. Drop the stale directory entry, reset to a clean slate, and run
    // the normal route — the lookup result must be indistinguishable from
    // one that never tried the cooperative cache, minus the latency already
    // spent.
    if (coop_stale_) {
      net_.ins_.coop_stale->Inc();
      net_.coop_directory().RetractHolder(served_, file_id_);
    }
    coop_attempt_ = false;
    coop_stale_ = false;
    from_cache_ = false;
    served_ = NodeId();
    route_path_.clear();
    result_.file_size = 0;
    result_.content = nullptr;
    StartRoute();
    return;
  }

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
  result_.via_coop = coop_attempt_;
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
