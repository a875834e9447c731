// StoreChain: the per-target store exchange of paper section 3.3, written
// once for both insert drivers. InsertOp sends each leg a step returns and
// runs the receiver's step on delivery; ScaleEngine::CommitInsert runs the
// steps back to back. For each of the k closest, A, in plan order:
//
//   root ──kStoreReplica──▶ A   AtTarget: store a primary, or pick B
//   A ──kDivertRequest──▶ B     AtDiversionTarget: store a diverted replica
//   B ──kAck──▶ A               AtDiverter: A's diverter pointer to B
//   A ──kInstallPointer──▶ C    AtWitness: C's witness pointer (best-effort)
//
// A step returns the one-hop message its node sends next (the driver adds
// the proximity distance). A then acks the root with stored(). On a
// negative ack the whole file is diverted: Rollback() removes every replica
// and pointer of the attempt.
#ifndef SRC_PAST_STORE_CHAIN_H_
#define SRC_PAST_STORE_CHAIN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/net/message.h"
#include "src/past/past_network.h"

namespace past {

class StoreChain {
 public:
  // The scale engine's bare files pass null `certificate` and `content`.
  StoreChain(PastNetwork& net, const NodeId& root, PastNetwork::InsertPlan plan,
             const FileId& file, uint64_t size, FileCertificateRef certificate,
             FileContentRef content);

  // The root's kStoreReplica to the next target that is still a storage
  // node; nullopt once every target is done.
  std::optional<Message> NextTarget();
  // At A: stores a primary, or returns the kDivertRequest to B; nullopt
  // means A acks the root now. A whose log cannot commit declines.
  std::optional<Message> AtTarget();
  // At B: stores the diverted replica if B accepts it; returns B's kAck.
  Message AtDiversionTarget();
  // B's kAck at A: A's diverter pointer to B's replica, then the
  // kInstallPointer to C when there is a C to shadow it.
  std::optional<Message> AtDiverter();
  // At C: the witness pointer to B.
  void AtWitness();

  // A's verdict for the current target, and A itself.
  bool stored() const { return stored_; }
  const NodeId& target() const { return target_; }

  void Rollback();

 private:
  struct Created {
    NodeId node;
    bool is_pointer;
  };

  PastNetwork& net_;
  const NodeId root_;
  const PastNetwork::InsertPlan plan_;
  const FileId file_;
  const uint64_t size_;
  const FileCertificateRef certificate_;
  const FileContentRef content_;

  size_t next_ = 0;  // into plan_.targets
  NodeId target_;
  NodeId diverted_to_;   // B
  bool stored_ = false;  // the current target's verdict so far
  std::vector<Created> created_;
};

}  // namespace past

#endif  // SRC_PAST_STORE_CHAIN_H_
