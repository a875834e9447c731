// Timed keep-alive protocol (paper section 2.1): neighboring nodes in the
// nodeId space exchange keep-alive messages; a node unresponsive for a period
// T is presumed failed, triggering leaf-set repair in all affected nodes.
//
// The KeepAliveDriver binds that behavior to the discrete-event clock: every
// `period` of virtual time it sends a kKeepAliveProbe over every leaf-set
// edge through the message fabric and counts the kKeepAliveAck replies.
// Probes are subject to the transport's fault plan (drops, partitions); a
// member whose probes have gone unanswered for `timeout` of virtual time —
// measured from its first missed round — is presumed failed and removed.
// A silently dead node is therefore detected no later than its failure time
// plus period + timeout (the paper's recovery period), and a partitioned but
// running node is detected the same way.
#ifndef SRC_PASTRY_KEEPALIVE_H_
#define SRC_PASTRY_KEEPALIVE_H_

#include <unordered_map>

#include "src/net/transport.h"
#include "src/pastry/network.h"
#include "src/sim/event_queue.h"

namespace past {

class KeepAliveDriver {
 public:
  // Starts probing immediately: the first round fires at now() + period.
  // `transport` (typically the SimTransport driving the same queue) must
  // outlive this driver.
  KeepAliveDriver(EventQueue& queue, PastryNetwork& network, Transport& transport,
                  SimTime period, SimTime timeout);
  ~KeepAliveDriver();

  KeepAliveDriver(const KeepAliveDriver&) = delete;
  KeepAliveDriver& operator=(const KeepAliveDriver&) = delete;

  // Stops scheduling further rounds (pending round is cancelled).
  void Stop();

  SimTime period() const { return period_; }
  uint64_t rounds_run() const { return rounds_run_; }
  uint64_t failures_detected() const { return failures_detected_; }

 private:
  void ScheduleNext();
  void RunRound();

  EventQueue& queue_;
  PastryNetwork& network_;
  Transport& transport_;
  SimTime period_;
  SimTime timeout_;
  // When each member's current run of missed rounds began. A member that was
  // not probed in the latest round (it left every leaf set) has no record.
  std::unordered_map<NodeId, SimTime, NodeIdHash> unresponsive_since_;
  EventQueue::EventId pending_event_ = 0;
  bool stopped_ = false;
  uint64_t rounds_run_ = 0;
  uint64_t failures_detected_ = 0;
};

}  // namespace past

#endif  // SRC_PASTRY_KEEPALIVE_H_
