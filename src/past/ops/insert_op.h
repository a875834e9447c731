// InsertOp: the distributed insert protocol (paper sections 2.2, 3.3) as an
// event-driven state machine (async_op.h).
//
// The insert request rides the Pastry route to the root, which verifies the
// certificate and plans the k closest. Then one store phase per target runs
// that target's StoreChain exchange (store_chain.h): the op sends each
// message a chain step returns and runs the receiver's step on delivery,
// and A's kAck back to the root ends the phase. A negative ack, or a phase
// that times out before the root ack lands, rolls the attempt back and
// returns kNoSpace or kTimeout; the client's re-salt retry handles both.
#ifndef SRC_PAST_OPS_INSERT_OP_H_
#define SRC_PAST_OPS_INSERT_OP_H_

#include <optional>
#include <vector>

#include "src/past/ops/async_op.h"
#include "src/past/store_chain.h"

namespace past {

class InsertOp : public AsyncOp {
 public:
  using Callback = std::function<void(const InsertResult&)>;

  InsertOp(PastNetwork& net, const NodeId& origin, const FileCertificate& certificate,
           uint64_t size, FileContentRef content, Callback callback);

  void Start();

  const InsertResult& result() const { return result_; }

 protected:
  void OnFinish() override;
  void OnCancel() override;

 private:
  void AfterRequest();
  void StoreNext();   // opens the store phase for the chain's next target
  void AfterStore();  // reads the root ack, advances or rolls back
  void SendLeg(Exchange& ex, const Message& leg, void (InsertOp::*handler)(const Delivery&));
  void AckRoot();
  void Finish(InsertStatus status);
  void Rollback();

  // Delivery handlers: each runs the receiving node's chain step.
  void OnStoreReplica(const Delivery&);    // at the target A
  void OnDivertRequest(const Delivery&);   // at the diversion target B
  void OnDivertAck(const Delivery&);       // B's answer, back at A
  void OnWitnessInstall(const Delivery&);  // at the witness C
  void OnRootAck(const Delivery&);         // A's ack at the root

  // Submission parameters (owned: the op outlives the caller's frame).
  NodeId origin_;
  FileCertificate certificate_;
  uint64_t size_;
  FileContentRef content_;
  Callback callback_;

  // Root-side state.
  NodeId key_;
  NodeId root_;
  std::vector<NodeId> route_path_;  // for CacheAlongPath on success
  std::optional<StoreChain> chain_;

  Exchange request_ex_;     // kInsertRequest at the root
  Exchange store_ex_;       // kStoreReplica at the target
  Exchange divert_ex_;      // kDivertRequest at B
  Exchange divert_ack_ex_;  // B's ack back at A
  Exchange witness_ex_;     // kInstallPointer at C
  Exchange root_ack_ex_;    // A's ack at the root
  bool root_acked_ = false;  // the current target's root ack has landed

  InsertResult result_;
};

}  // namespace past

#endif  // SRC_PAST_OPS_INSERT_OP_H_
