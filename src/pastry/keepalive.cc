#include "src/pastry/keepalive.h"

#include <vector>

namespace past {

KeepAliveDriver::KeepAliveDriver(EventQueue& queue, PastryNetwork& network,
                                 Transport& transport, SimTime period, SimTime timeout)
    : queue_(queue), network_(network), transport_(transport), period_(period),
      timeout_(timeout) {
  ScheduleNext();
}

KeepAliveDriver::~KeepAliveDriver() { Stop(); }

void KeepAliveDriver::Stop() {
  if (!stopped_) {
    stopped_ = true;
    if (pending_event_ != 0) {
      queue_.Cancel(pending_event_);
      pending_event_ = 0;
    }
  }
}

void KeepAliveDriver::ScheduleNext() {
  pending_event_ = queue_.ScheduleAfter(period_, [this] { RunRound(); });
}

void KeepAliveDriver::RunRound() {
  if (stopped_) {
    return;
  }
  ++rounds_run_;
  // Probe every leaf-set edge through the fabric; any answered probe marks
  // the member responsive for this round. The containers live on this frame
  // until Settle() returns, so the continuations may capture them by
  // reference.
  std::vector<NodeId> probed;  // first-probe order, for deterministic sweeps
  std::unordered_map<NodeId, bool, NodeIdHash> responded;
  for (const NodeId& id : network_.live_nodes()) {
    const PastryNode* prober = network_.node(id);
    if (prober == nullptr) {
      continue;
    }
    for (const NodeId& member : prober->leaf_set().All()) {
      if (responded.emplace(member, false).second) {
        probed.push_back(member);
      }
      Message probe;
      probe.type = MessageType::kKeepAliveProbe;
      probe.from = id;
      probe.to = member;
      // The same 16-byte probe PastryNetwork::DetectAndRepair() accounts.
      probe.payload_bytes = 16;
      probe.hops = 1;
      probe.distance = network_.DistanceOr(id, member, 0.0);
      transport_.Send(probe, [this, id, member, &responded](const Delivery&) {
        if (!network_.IsAlive(member)) {
          return;  // a dead node receives nothing and answers nothing
        }
        Message ack;
        ack.type = MessageType::kKeepAliveAck;
        ack.from = member;
        ack.to = id;
        transport_.Send(ack, [&responded, member](const Delivery&) {
          responded[member] = true;
        });
      });
    }
  }
  transport_.Settle();

  SimTime now = queue_.now();
  for (const NodeId& member : probed) {
    if (responded[member]) {
      unresponsive_since_.erase(member);
      continue;
    }
    auto it = unresponsive_since_.emplace(member, now).first;
    if (now - it->second >= timeout_) {
      // Unresponsive for the paper's period T: presumed failed. FailNode
      // repairs leaf sets and notifies observers (replica maintenance) —
      // for a silently dead node this finishes the detection; for a
      // partitioned node it evicts a live-but-unreachable member.
      unresponsive_since_.erase(it);
      network_.FailNode(member);
      ++failures_detected_;
    }
  }
  // A member that left every leaf set (failed by another path, say) starts
  // afresh if it rejoins: its first miss after that opens a new timeout.
  std::erase_if(unresponsive_since_,
                [&responded](const auto& entry) { return !responded.contains(entry.first); });
  ScheduleNext();
}

}  // namespace past
