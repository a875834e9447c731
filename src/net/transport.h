// Transport: the pluggable delivery layer under every PAST/Pastry protocol.
//
// The per-operation coordinators (src/past/ops/) express all node-to-node
// interaction as typed Messages handed to a Transport; the transport decides
// when (and whether) each message arrives. There is one delivery behaviour,
// SimTransport (sim_transport.h): delivery scheduled on an EventQueue at a
// latency computed from the LatencyModel and the message's route shape, with
// seeded fault injection (drop / duplicate / delay / partition). The
// network's default, InlineTransport, is SimTransport at zero latency with
// no faults, over a queue of its own: a message still arrives only when the
// queue is pumped, never inside Send(), in FIFO send order.
//
// Delivery model: Send(msg, on_deliver) queues msg; `on_deliver` runs "at
// msg.to" when the message arrives — possibly never (drop, partition),
// possibly twice (duplication). Replies are just more Sends issued from
// inside a delivery continuation.
//
// Two drive modes sit on top:
//  * Event-driven (the client-op engine, src/past/ops/async_op.h): an op
//    registers reply handlers and arms a timeout timer via ScheduleTimer();
//    the engine pumps StepOne() until the op completes. A reply that has
//    not arrived when the timer fires was dropped — the op takes its
//    rollback / retry path.
//  * Settle-driven (maintenance-plane repair, keep-alive probe rounds):
//    Send(...); transport.Settle(); then inspect which replies arrived —
//    a missing reply after Settle() IS the timeout signal.
#ifndef SRC_NET_TRANSPORT_H_
#define SRC_NET_TRANSPORT_H_

#include <functional>

#include "src/net/message.h"
#include "src/net/transport_stats.h"
#include "src/sim/event_queue.h"

namespace past {

// What a delivery continuation sees: the message plus when/how it arrived.
struct Delivery {
  const Message& message;
  // Simulated one-way latency of this delivery in milliseconds (0 under
  // InlineTransport). Chained exchanges sum these for end-to-end latency.
  double latency_ms = 0.0;
  // Virtual arrival time (always 0 under InlineTransport, whose clock never
  // advances).
  SimTime at = 0;
};

class Transport {
 public:
  using DeliverFn = std::function<void(const Delivery&)>;

  // `stats` is shared with the overlay (PastryNetwork::stats()) so fabric
  // sends and routing hops land in one ledger; must outlive the transport.
  explicit Transport(TransportStats* stats) : stats_(stats) {}
  virtual ~Transport() = default;

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  virtual void Send(const Message& msg, DeliverFn on_deliver) = 0;

  // Drains all in-flight messages, including replies their deliveries
  // trigger. After Settle() returns, any exchange whose reply has not
  // arrived never will (it was dropped), so the sender may treat it as
  // timed out.
  virtual void Settle() = 0;

  // Virtual clock.
  virtual SimTime now() const = 0;

  // --- event-driven op support (async_op.h) ---

  using TimerId = uint64_t;

  // Schedules `fn` to run after `delay_ms` of virtual time.
  virtual TimerId ScheduleTimer(SimTime delay_ms, std::function<void()> fn) = 0;

  // Cancels a pending timer; false if it already fired.
  virtual bool CancelTimer(TimerId id) = 0;

  // Advances the transport by one event (a delivery or a timer) and returns
  // whether anything ran. The op engine's Poll() drain is built on this.
  virtual bool StepOne() = 0;

  // Deliveries accepted but not yet dispatched. The op engine uses this to
  // decide when a finished op can no longer be referenced by a queued
  // delivery closure and may be freed.
  virtual uint64_t InFlightDeliveries() const = 0;

  // True when Settle()/StepOne() would run nothing: no delivery in flight
  // and no timer pending, including events co-scheduled on a shared queue.
  virtual bool Idle() const { return InFlightDeliveries() == 0; }

  TransportStats& stats() { return *stats_; }
  const TransportStats& stats() const { return *stats_; }

 protected:
  // One-stop accounting for a send: the per-type counter always, plus the
  // legacy message/rpc tally that the pre-fabric code charged for this type
  // (none for every other type; routed requests are charged per hop inside
  // Route()). Deriving it from the type keeps `net.messages` / `net.rpcs` /
  // `net.bytes_sent` unchanged.
  void Account(const Message& msg) {
    stats_->RecordSend(msg.type);
    switch (msg.type) {
      case MessageType::kStoreReplica:    // carries the file bytes
      case MessageType::kKeepAliveProbe:  // a data message on the wire
        stats_->RecordMessage(msg.payload_bytes);
        break;
      case MessageType::kDivertRequest:
      case MessageType::kInstallPointer:
        stats_->RecordRpc();
        break;
      default:
        break;
    }
  }

  TransportStats* stats_;
};

}  // namespace past

#endif  // SRC_NET_TRANSPORT_H_
