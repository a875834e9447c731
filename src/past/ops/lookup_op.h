// LookupOp: the lookup protocol (paper sections 2.2, 3.3, 4) as an
// event-driven state machine (async_op.h).
//
// Locating the file reuses Pastry routing (with the replica/cache stop
// predicate, the diversion-pointer hop, and the k-closest probe fallback);
// the fetch itself is then a two-message exchange on the fabric: a
// kLookupRequest riding the located route, and a kFetchReply carrying the
// file bytes straight back to the origin.
//
// With the cooperative cache enabled (PastConfig::enable_coop_cache), a
// lookup the origin cannot serve locally first asks its leaf-set broker
// (PastNetwork::CoopBroker; kCacheProbe / kCacheReply, one cheap round
// trip) whether a neighbor holds a cached copy. A brokered hit fetches from
// the holder directly; a miss, a stale pointer, or a lost probe falls back
// to the normal route — cooperation can only add one control round trip,
// never a wrong answer.
//
// State machine:
//
//   Start ──coop──▶ probe phase ──hit──▶ fetch phase ──▶ AfterFetch
//     │               │ miss/timeout       ▲                 │ stale/lost
//     │               ▼                    │                 ▼ (coop only)
//     └────────────▶ StartRoute ──located──┘             StartRoute
//                      │ not found
//                      ▼
//                  Finish(kNotFound)
//
// Either fetch message lost in transit leaves the reply exchange
// uncompleted when the phase timeout fires — LookupStatus::kTimeout.
#ifndef SRC_PAST_OPS_LOOKUP_OP_H_
#define SRC_PAST_OPS_LOOKUP_OP_H_

#include <optional>
#include <vector>

#include "src/past/ops/async_op.h"

namespace past {

class LookupOp : public AsyncOp {
 public:
  using Callback = std::function<void(const LookupResult&)>;

  LookupOp(PastNetwork& net, const NodeId& origin, const FileId& file_id, Callback callback);

  void Start();

  const LookupResult& result() const { return result_; }

 protected:
  void OnFinish() override;

 private:
  void StartCoopProbe();                // ask the origin's broker for a holder
  void OnCacheProbe(const Delivery&);   // at the broker: resolve + reply
  void AfterCoopProbe();                // hit -> fetch from holder, else route
  void StartRoute();                    // the classic Pastry locate path
  void StartFetch();                    // request/reply exchange with served_
  void OnFetchRequest(const Delivery&); // at the serving node: read + reply
  void AfterFetch();
  void Finish();

  NodeId origin_;
  FileId file_id_;
  Callback callback_;

  NodeId served_;
  bool from_cache_ = false;
  std::vector<NodeId> route_path_;
  Exchange request_ex_;  // kLookupRequest at the serving node
  Exchange reply_ex_;    // kFetchReply back at the origin

  // Cooperative-probe state (untouched unless the cooperative cache is on).
  NodeId broker_;
  std::optional<NodeId> coop_holder_;  // broker's answer, set in OnCacheProbe
  bool coop_attempt_ = false;          // fetching a brokered cached copy
  bool coop_stale_ = false;            // holder no longer had the copy
  double probe_start_ms_ = 0.0;
  Exchange probe_ex_;        // kCacheProbe at the broker
  Exchange probe_reply_ex_;  // kCacheReply back at the origin

  LookupResult result_;
};

}  // namespace past

#endif  // SRC_PAST_OPS_LOOKUP_OP_H_
