#include "src/past/ops/async_op.h"

#include "src/past/ops/op_engine.h"

namespace past {
namespace {

// Per-phase timeout for the event-driven client operations (virtual ms).
// When a protocol exchange still has unanswered messages this long after
// they were sent, the op presumes them lost and takes its timeout path
// (rollback + client re-salt retry for inserts). Must comfortably exceed
// the worst-case chained delivery latency of one exchange so that merely
// slow (delayed-fault) messages are not misread as drops.
constexpr uint64_t kOpTimeoutMs = 2000;

}  // namespace

Message OpCore::Direct(MessageType type, const NodeId& from, const NodeId& to,
                       const FileId& file, uint64_t payload_bytes) {
  Message msg;
  msg.type = type;
  msg.from = from;
  msg.to = to;
  msg.file = file;
  msg.payload_bytes = payload_bytes;
  msg.hops = 1;
  Topology& topo = net_.pastry_.topology();
  msg.distance = (topo.Contains(from) && topo.Contains(to)) ? topo.Distance(from, to) : 0.0;
  return msg;
}

void AsyncOp::BeginPhase(Continuation next) {
  ++epoch_;
  pending_ = 1;  // the phase bracket, released by EndPhase()
  in_phase_ = true;
  next_ = next;
}

void AsyncOp::EndPhase() {
  in_phase_ = false;
  if (--pending_ == 0) {
    Advance();
    return;
  }
  // Replies outstanding: arm the phase timeout. When it fires first, the
  // continuation runs with the unanswered Exchange flags still false.
  //
  // The closure holds the op raw (two trivially-copyable words: inside the
  // std::function small buffer, no allocation). Safe: an armed timer implies
  // an unfinished op, which the engine keeps alive; FinishOp()/Advance()
  // cancel the timer before the op can retire, and a cancelled event's
  // closure is never run.
  timer_armed_ = true;
  timer_ = transport_.ScheduleTimer(kOpTimeoutMs, [this, epoch = epoch_] {
    if (done_ || epoch_ != epoch) {
      return;  // the phase completed (or the op finished) before the timer
    }
    OpEngine::DispatchGuard guard(net_.engine());
    timer_armed_ = false;
    timed_out_ = true;
    pending_ = 0;
    Advance();
  });
}

void AsyncOp::SendTracked(Exchange& ex, const Message& msg, Handler handler) {
  ex.Reset(epoch_);
  ex.handler_ = handler;
  ++pending_;
  ++messages_;
  // Two raw words, trivially copyable: the delivery closure stays inside
  // std::function's small buffer — no heap allocation per send. The engine's
  // ownership rules (op_engine.h) guarantee `this` outlives every delivery,
  // including duplicates arriving after the op finished. Drops and
  // duplicates are decided inside Send, so the in-flight delta is the
  // number of copies that will call back.
  const uint64_t before = transport_.InFlightDeliveries();
  transport_.Send(msg, [this, ex = &ex](const Delivery& d) { OnDelivery(*ex, d); });
  queued_ += transport_.InFlightDeliveries() - before;
}

void AsyncOp::OnDelivery(Exchange& ex, const Delivery& d) {
  --queued_;
  if (done_ || ex.completed_ || ex.epoch_ != epoch_) {
    return;  // duplicate, straggler from a timed-out phase, or op finished
  }
  // While this dispatch is on the stack the engine must not reap retired
  // ops: the handler below may finish this very op.
  OpEngine::DispatchGuard guard(net_.engine());
  ex.completed_ = true;
  latency_ms_ += d.latency_ms;
  if (ex.handler_ != nullptr) {
    (this->*ex.handler_)(d);  // may open further exchanges in this phase
  }
  if (--pending_ == 0 && !in_phase_) {
    Advance();
  }
}

void AsyncOp::Advance() {
  if (timer_armed_) {
    transport_.CancelTimer(timer_);
    timer_armed_ = false;
  }
  ++epoch_;  // close this phase's handlers before running the continuation
  Continuation next = next_;
  next_ = nullptr;
  if (next != nullptr) {
    (this->*next)();
  }
}

void AsyncOp::FinishOp() {
  if (done_) {
    return;
  }
  done_ = true;
  if (timer_armed_) {
    transport_.CancelTimer(timer_);
    timer_armed_ = false;
  }
  ++epoch_;
  next_ = nullptr;
  net_.engine().OnOpFinished(*this);
  if (!cancelled_) {
    OnFinish();
  }
}

void AsyncOp::Cancel() {
  if (done_) {
    return;
  }
  // Guarded like a dispatch: FinishOp() retires this op while these frames
  // are still on the stack, so no engine re-entry may reap it yet.
  OpEngine::DispatchGuard guard(net_.engine());
  cancelled_ = true;
  OnCancel();
  FinishOp();
}

}  // namespace past
