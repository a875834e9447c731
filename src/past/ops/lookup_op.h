// LookupOp: the lookup protocol (paper sections 2.2, 3.3, 4) as an
// event-driven state machine (async_op.h).
//
// Locating the file reuses Pastry routing (with the replica/cache stop
// predicate, the diversion-pointer hop, and the k-closest probe fallback);
// the fetch itself is then a two-message exchange on the fabric: a
// kLookupRequest riding the located route, and a kFetchReply carrying the
// file bytes straight back to the origin.
//
// State machine:
//
//   Start (route) ──located──▶ fetch phase ──▶ AfterFetch
//     │ not found
//     ▼
//   Finish(kNotFound)
//
// Either fetch message lost in transit leaves the reply exchange
// uncompleted when the phase timeout fires — LookupStatus::kTimeout.
#ifndef SRC_PAST_OPS_LOOKUP_OP_H_
#define SRC_PAST_OPS_LOOKUP_OP_H_

#include <vector>

#include "src/past/ops/async_op.h"

namespace past {

class LookupOp : public AsyncOp {
 public:
  using Callback = std::function<void(const LookupResult&)>;

  LookupOp(PastNetwork& net, const NodeId& origin, const FileId& file_id, Callback callback);

  void Start();  // the Pastry locate path, then the fetch

  const LookupResult& result() const { return result_; }

 protected:
  void OnFinish() override;

 private:
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

  LookupResult result_;
};

}  // namespace past

#endif  // SRC_PAST_OPS_LOOKUP_OP_H_
