// RepairOp: replica maintenance (paper section 3.5) as a transport-speaking
// coordinator.
//
// Discovery (which nodes still hold replicas, which pointers are stale) is
// scan-based, like the pre-fabric code — the keep-alive exchange already
// carries that information for free in the paper's design. State-changing
// steps go over the fabric: replica re-creation is a kRepairStore pushed
// from a surviving holder, replacement diversion pointers are installed by
// a kRepairPointer from the repair coordinator. A lost repair message
// leaves the invariant unrestored for this round; the next membership event
// or keep-alive round retries.
//
// Unlike the client ops (async_op.h), repair runs on the maintenance plane
// and is driven to quiescence inline: each exchange is a SendSettled() —
// send, Settle() the transport, inspect what the destination did. It shares
// only message building (OpCore::Direct) with the client ops: no phases,
// exchanges, timers, or per-op message and latency tallies. Repair therefore
// interleaves with in-flight client ops as a unit, at the virtual time its
// membership trigger fired.
#ifndef SRC_PAST_OPS_REPAIR_OP_H_
#define SRC_PAST_OPS_REPAIR_OP_H_

#include <vector>

#include "src/common/thread_pool.h"
#include "src/past/ops/async_op.h"

namespace past {

class RepairOp : public OpCore {
 public:
  explicit RepairOp(PastNetwork& net) : OpCore(net) {}

  // Re-examines every file tracked by the nodes in `region` (paper: nodes
  // adjust replicas when their leaf set changes), repairing those that
  // NeedsRepair flags.
  //
  // Without `pool` each file is diagnosed lazily, at the moment it would be
  // repaired. That laziness is load-bearing: a repair's SendSettled() drains
  // the transport, which can deliver in-flight client messages (or fire op
  // timers) that change a later file's state, so a verdict taken before an
  // earlier repair may be stale by the time its file comes up.
  //
  // With `pool` every file is diagnosed up front, in parallel chunks over a
  // vector of the file set in its iteration order, and then only the
  // flagged files are repaired, serially, in that order. This is exact only
  // on a quiescent network (nothing pending on the transport, no join batch
  // open; PastNetwork::MaintenanceSweep checks): then a repair of file A
  // writes only A's entries and node byte counts, and no other file's
  // verdict — which reads that file's entries, liveness and leaf sets —
  // can change under it.
  void RestoreInvariants(const std::vector<NodeId>& region, ThreadPool* pool = nullptr);

  // False only when RepairFile(file_id) would be a no-op — nothing sent,
  // counted, traced or stored: the file has no live root, or every one of
  // the k leaf-set-closest nodes is live and holds a replica (then pass 1
  // accepts every node, and pass 2 finds no candidate lacking a replica).
  // Reads overlay and store state only, so concurrent calls are safe while
  // nothing mutates the network and no join batch is open.
  bool NeedsRepair(const FileId& file_id) const;

  // Restores the storage invariant for one file: each of the k closest
  // holds a replica or a pointer to a live holder, and the replication
  // level is brought back to k when space allows.
  void RepairFile(const FileId& file_id);

 private:
  // One settle-driven send: runs `at_destination` once if (and when) a copy
  // of `msg` arrives — duplicates are absorbed — and drains the transport
  // before returning. A dropped message runs nothing.
  void SendSettled(const Message& msg, const std::function<void()>& at_destination);
};

}  // namespace past

#endif  // SRC_PAST_OPS_REPAIR_OP_H_
