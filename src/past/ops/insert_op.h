// InsertOp: the distributed insert protocol (paper sections 2.2, 3.3) as an
// event-driven state machine (async_op.h).
//
// Wire shape: the insert request rides the Pastry route to the root; the
// root sends one kStoreReplica per member of the k closest; a member that
// cannot accept issues a kDivertRequest into its leaf set and, on success,
// a kInstallPointer to the witness; every store exchange ends with an
// kAck (positive or negative) back to the root.
//
// Every store, divert and pointer commit, and the accounting that goes
// with it, is a PastNetwork placement step (PlaceReplica, PlacePointer,
// RollbackInsert, ...). This op only decides which message phase each step
// runs in; ScaleEngine runs the same steps in epoch order.
//
// State machine:
//
//   Start ──request phase──▶ AfterRequest ──▶ StoreNext(target 0)
//                                                │  store phase per target
//                                                ▼
//                                           AfterStore ──kStored──▶ StoreNext(+1)
//                                                │                      │ all k
//                                                │ declined/timeout     ▼
//                                                ▼                  Finish(kStored)
//                                     rollback + Finish(kNoSpace/kTimeout)
//
// A phase that times out leaves its Exchange flags unset; AfterRequest /
// AfterStore read that as the lost-message path: the attempt rolls back and
// returns kTimeout, which the client's re-salt retry handles exactly like a
// negative ack.
#ifndef SRC_PAST_OPS_INSERT_OP_H_
#define SRC_PAST_OPS_INSERT_OP_H_

#include <optional>
#include <vector>

#include "src/past/ops/async_op.h"

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
  void StoreNext();   // issues the store exchange for plan_.targets[target_index_]
  void AfterStore();  // inspects the exchange outcome, advances or rolls back
  void AckRoot(const NodeId& from_node, bool ok);
  void Finish(InsertStatus status);
  void Rollback();

  // Reply handlers of the store phase. Per-exchange context a handler needs
  // (the current target, the pending ack verdict, the diversion outcome)
  // lives in the members below — the async_op.h zero-capture contract.
  void OnStoreReplica(const Delivery&);    // at the target A
  void OnDivertReply(const Delivery&);     // at the diversion target B
  void OnDivertAck(const Delivery&);       // B's answer, back at A
  void OnWitnessInstall(const Delivery&);  // at the witness C
  void OnRootAck(const Delivery&);         // the exchange's final ack

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
  PastNetwork::InsertPlan plan_;    // the k closest, in exchange order
  FileCertificateRef cert_ref_;
  std::vector<PastNetwork::PendingStore> created_;
  size_t target_index_ = 0;

  // Per-store-exchange state, reset for each target.
  enum class Outcome { kPending, kStored, kDeclined };
  Outcome outcome_ = Outcome::kPending;
  Exchange request_ex_;     // kInsertRequest at the root
  Exchange store_ex_;       // kStoreReplica at the target
  Exchange divert_ex_;      // kDivertRequest at B
  Exchange divert_ack_ex_;  // B's ack back at A
  Exchange witness_ex_;     // kInstallPointer at C
  Exchange root_ack_ex_;    // final ack at the root
  std::optional<NodeId> divert_target_;
  bool ack_ok_ = false;       // verdict riding the in-flight root ack
  bool stored_at_b_ = false;  // whether B accepted the diverted replica

  InsertResult result_;
};

}  // namespace past

#endif  // SRC_PAST_OPS_INSERT_OP_H_
