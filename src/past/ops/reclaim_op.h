// ReclaimOp: the reclaim protocol (paper section 2.2) as an event-driven
// state machine (async_op.h).
//
// The reclaim certificate rides the route to the root; the root then sends
// one kReclaimRequest to each of the k+1 closest nodes. A node holding a
// diverter pointer forwards the request to the actual replica holder before
// dropping the pointer; each node acks the root.
//
// State machine:
//
//   Start ──request phase──▶ AfterRequest ──▶ TargetNext(0)
//                                                │ per-target phase
//                                                ▼ (request ▶ holder ▶ ack)
//                                            TargetNext(+1) ... ──▶ Finish
//
// Lost messages simply leave that node's replica in place — the next
// reclaim or maintenance round retires it; a timed-out per-target phase
// just moves on to the next target.
//
// A cancel cannot put back the replicas already dropped, so instead of the
// completion callback it runs `on_cancel` with the partial result: the
// receipts for those drops, which the owner's card can still credit.
#ifndef SRC_PAST_OPS_RECLAIM_OP_H_
#define SRC_PAST_OPS_RECLAIM_OP_H_

#include <vector>

#include "src/past/ops/async_op.h"

namespace past {

class ReclaimOp : public AsyncOp {
 public:
  using Callback = std::function<void(const ReclaimResult&)>;

  ReclaimOp(PastNetwork& net, const NodeId& origin, const ReclaimCertificate& certificate,
            Callback callback, Callback on_cancel);

  void Start();

  const ReclaimResult& result() const { return result_; }

 protected:
  void OnFinish() override;
  void OnCancel() override;

 private:
  void AfterRequest();
  void TargetNext();
  void ReclaimAt(const NodeId& node_id);
  void Finish(ReclaimStatus status);

  // Reply handlers of the per-target phase; the target / pointer holder in
  // play ride in the members below (async_op.h zero-capture contract).
  void OnTargetReply(const Delivery&);
  void OnHolderReply(const Delivery&);

  NodeId origin_;
  ReclaimCertificate certificate_;
  Callback callback_;
  Callback on_cancel_;

  NodeId root_;
  int route_hops_ = 0;
  std::vector<NodeId> targets_;  // the k+1 closest
  size_t target_index_ = 0;
  bool owner_mismatch_ = false;
  NodeId current_target_;   // target of the in-progress per-target phase
  NodeId pointer_holder_;   // diverted-replica holder being chased

  Exchange request_ex_;  // kReclaimRequest at the root
  Exchange target_ex_;   // kReclaimRequest at the target
  Exchange holder_ex_;   // forwarded request at the pointer's holder
  Exchange ack_ex_;      // target's ack at the root

  ReclaimResult result_;
};

}  // namespace past

#endif  // SRC_PAST_OPS_RECLAIM_OP_H_
