// SimTransport: event-queue-scheduled delivery with simulated latency and
// seeded fault injection.
//
// Each Send computes a latency from the LatencyModel and the message's route
// shape (hops, proximity distance, payload bytes), applies the FaultPlan
// (drop / duplicate / delay, plus node partitions), and schedules the
// delivery on the EventQueue. Determinism: for a fixed seed and call
// sequence, the fault decisions and delivery order are identical run to
// run — equal-time deliveries execute in FIFO send order (the EventQueue's
// sequence tie-break).
//
// A message in flight is parked with its latency and continuation in a
// reused slot, and the queued event carries only {this, slot}, which fits
// std::function's small buffer: a send allocates nothing beyond what the
// caller's continuation itself needs, once the slot table has grown to the
// run's peak in-flight count.
#ifndef SRC_NET_SIM_TRANSPORT_H_
#define SRC_NET_SIM_TRANSPORT_H_

#include <array>
#include <limits>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/net/fault_plan.h"
#include "src/net/latency_model.h"
#include "src/net/transport.h"

namespace past {

class SimTransport : public Transport {
 public:
  struct Options {
    LatencyModel latency;
    FaultPlan faults;
    uint64_t seed = 1;
  };

  // `queue` drives virtual time; `stats` is the shared ledger (see
  // Transport). Both must outlive the transport.
  SimTransport(EventQueue& queue, const Options& options, TransportStats* stats);

  void Send(const Message& msg, DeliverFn on_deliver) override;

  // Runs queue events until no fabric message is in flight. Other timers on
  // the same queue (keep-alive rounds, ...) that come due earlier execute in
  // time order along the way — this is a simulation step, not a bypass.
  void Settle() override;

  SimTime now() const override { return queue_.now(); }

  // Op timeouts are plain events on the driving queue, so they interleave
  // with deliveries in virtual-time order.
  TimerId ScheduleTimer(SimTime delay_ms, std::function<void()> fn) override {
    return queue_.ScheduleAfter(delay_ms, std::move(fn));
  }
  bool CancelTimer(TimerId id) override { return queue_.Cancel(id); }

  // One queue event — delivery, op timeout, or any co-scheduled timer (the
  // drain is a simulation step, like Settle()).
  bool StepOne() override { return queue_.Step(); }

  uint64_t InFlightDeliveries() const override { return in_flight(); }
  bool Idle() const override { return queue_.empty(); }

  const Options& options() const { return options_; }

  // --- fault control (tests and experiments poke these mid-run) ---

  // Replaces the probabilistic fault plan in place. The simulation soak
  // harness uses this to run fault-free convergence phases at invariant
  // checkpoints without rebuilding the transport (partitions and DropNext
  // targeting are unaffected).
  void set_faults(const FaultPlan& faults) { options_.faults = faults; }

  // A partitioned node is cut off: every message from or to it is dropped.
  void Partition(const NodeId& id) { partitioned_.insert(id); }
  void Heal(const NodeId& id) { partitioned_.erase(id); }
  bool IsPartitioned(const NodeId& id) const { return partitioned_.count(id) != 0; }

  // Deterministic targeted fault: silently drop the next `count` sends of
  // `type` (independent of the probabilistic plan). Tests use this to lose
  // one specific protocol message instead of rolling dice.
  void DropNext(MessageType type, uint64_t count) {
    drop_next_[static_cast<size_t>(type)] += count;
  }

  uint64_t in_flight() const { return parked_.size() - free_slots_.size(); }
  uint64_t delivered() const { return delivered_; }

 private:
  // One message in flight (one copy, when duplicated).
  struct Parked {
    Message msg;
    double latency = 0.0;
    DeliverFn fn;
  };

  double LatencyFor(const Message& msg) const;
  bool ShouldDrop(const Message& msg);
  // Frees `slot`, then runs its continuation.
  void Deliver(uint32_t slot);

  EventQueue& queue_;
  Options options_;
  Rng rng_;
  uint64_t delivered_ = 0;
  std::vector<Parked> parked_;
  std::vector<uint32_t> free_slots_;
  std::unordered_set<NodeId, NodeIdHash> partitioned_;
  std::array<uint64_t, kMessageTypeCount> drop_next_{};
};

// The network's default transport: SimTransport with zero latency and no
// faults, over an EventQueue of its own. Every delivery runs from that
// queue (StepOne / Settle), in FIFO send order, with `latency_ms` and `at`
// both 0; virtual time reaches an op timer only when nothing else is left.
class InlineTransport : public SimTransport {
 public:
  // SimTransport only stores the reference to queue_, which is constructed
  // right after it.
  explicit InlineTransport(TransportStats* stats)
      : SimTransport(queue_, Options{{0.0, 0.0, std::numeric_limits<double>::infinity()}, {}, 1},
                     stats) {}

 private:
  EventQueue queue_;
};

}  // namespace past

#endif  // SRC_NET_SIM_TRANSPORT_H_
