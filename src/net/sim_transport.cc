#include "src/net/sim_transport.h"

#include <cmath>
#include <utility>

namespace past {

SimTransport::SimTransport(EventQueue& queue, const Options& options, TransportStats* stats)
    : Transport(stats), queue_(queue), options_(options), rng_(options.seed) {}

double SimTransport::LatencyFor(const Message& msg) const {
  // The same formula the post-hoc path used, now applied per message at
  // delivery-scheduling time: per-hop handling overhead, wide-area
  // propagation over the proximity distance, payload transfer.
  return options_.latency.FetchLatencyMs(msg.hops, msg.distance, msg.payload_bytes);
}

bool SimTransport::ShouldDrop(const Message& msg) {
  if (!partitioned_.empty() && (IsPartitioned(msg.from) || IsPartitioned(msg.to))) {
    return true;
  }
  uint64_t& targeted = drop_next_[static_cast<size_t>(msg.type)];
  if (targeted > 0) {
    --targeted;
    return true;
  }
  return options_.faults.drop_probability > 0.0 &&
         rng_.NextDouble() < options_.faults.drop_probability;
}

void SimTransport::Send(const Message& msg, DeliverFn on_deliver) {
  Account(msg);
  if (ShouldDrop(msg)) {
    stats_->RecordDrop();
    return;
  }
  double latency = LatencyFor(msg);
  if (options_.faults.delay_probability > 0.0 &&
      rng_.NextDouble() < options_.faults.delay_probability) {
    latency += options_.faults.delay_ms;
    stats_->RecordDelay();
  }
  int copies = 1;
  if (options_.faults.duplicate_probability > 0.0 &&
      rng_.NextDouble() < options_.faults.duplicate_probability) {
    ++copies;
    stats_->RecordDuplicate();
  }
  SimTime delay = static_cast<SimTime>(std::llround(std::max(latency, 0.0)));
  for (int copy = 0; copy < copies; ++copy) {
    // The Message is parked so the sender's stack can unwind; the event
    // itself carries only the slot, which fits std::function's small buffer.
    uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<uint32_t>(parked_.size());
      parked_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    Parked& p = parked_[slot];
    p.msg = msg;
    p.latency = latency;
    if (copy + 1 == copies) {
      p.fn = std::move(on_deliver);
    } else {
      p.fn = on_deliver;
    }
    queue_.ScheduleAfter(delay, [this, slot] { Deliver(slot); });
  }
}

void SimTransport::Deliver(uint32_t slot) {
  // The continuation may send, which can reuse this slot or grow parked_,
  // so everything it needs leaves the slot before it runs.
  Parked& p = parked_[slot];
  const Message msg = p.msg;
  const double latency = p.latency;
  DeliverFn fn = std::move(p.fn);
  p.fn = nullptr;
  free_slots_.push_back(slot);
  ++delivered_;
  if (fn) {
    Delivery delivery{msg, latency, queue_.now()};
    fn(delivery);
  }
}

void SimTransport::Settle() {
  while (in_flight() > 0) {
    if (!queue_.Step()) {
      break;  // queue empty yet in-flight != 0 would be a bookkeeping bug
    }
  }
}

}  // namespace past
