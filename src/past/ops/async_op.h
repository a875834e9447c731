// Event-driven operation engine core: per-op state machines over the
// message fabric.
//
// Each client operation (insert / lookup / reclaim) is an AsyncOp that
// advances through phases. A phase issues a batch of tracked sends and
// waits until every exchange it opened has accepted a delivery, or until
// the op timeout fires first; its continuation then reads the Exchange
// flags to tell a completed protocol step from a timed-out one.
//
// Hot path: handlers and continuations are member function pointers, and
// the closure handed to Transport::Send captures two raw words (the op and
// the exchange), so it fits std::function's small buffer: no heap
// allocation per send. State a handler needs lives in op members, not in
// captures: the op object IS the closure.
//
// Lifetime rules (enforced by the engine, see op_engine.h):
//  * The engine owns every op it starts. A finished op is retired, and
//    freed at an engine safe point (no dispatch on the stack) once every
//    delivery copy it queued has landed, or once the transport has nothing
//    in flight at all, which also frees an op whose transport was replaced
//    with its copies still queued. So the raw op pointer in a transport
//    closure, a straggler duplicate's included, always points at a live op.
//  * Every reply handler is keyed to an Exchange and to the phase (epoch)
//    that opened it. A delivery for a completed exchange, a past phase, or
//    a finished op is ignored. This is what makes "timeout fired, op rolled
//    back, duplicate reply still in flight" safe.
//
// Determinism: ops schedule work only through the transport (deliveries and
// timers on the driving EventQueue); they never read wall clocks or draw
// extra randomness. For a fixed seed and submission order, the interleaving
// of any number of in-flight ops is identical run to run.
#ifndef SRC_PAST_OPS_ASYNC_OP_H_
#define SRC_PAST_OPS_ASYNC_OP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "src/net/transport.h"
#include "src/past/past_network.h"

namespace past {

class AsyncOp;

// One request/reply leg of a protocol exchange. The op owns one Exchange
// per tracked send; the Exchange guarantees the handler runs at most once
// (duplicate deliveries are absorbed) and records whether the leg completed,
// the flag the phase continuation inspects.
class Exchange {
 public:
  Exchange() = default;
  Exchange(const Exchange&) = delete;
  Exchange& operator=(const Exchange&) = delete;

  // True once a delivery was accepted for the current use of this exchange.
  bool completed() const { return completed_; }

 private:
  friend class AsyncOp;

  void Reset(uint64_t epoch) {
    completed_ = false;
    epoch_ = epoch;
    handler_ = nullptr;
  }

  bool completed_ = false;
  uint64_t epoch_ = 0;
  // Reply handler for the current use of this exchange (may be null). A
  // member function pointer instead of a std::function: nothing to allocate,
  // and the dispatch in AsyncOp::OnDelivery applies the epoch/done checks in
  // one place.
  void (AsyncOp::*handler_)(const Delivery&) = nullptr;
};

// Message building shared by every coordinator, both the event-driven
// client ops below and the settle-driven maintenance RepairOp.
class OpCore {
 protected:
  explicit OpCore(PastNetwork& net) : net_(net), transport_(net.transport()) {}

  // Builds a direct (one-hop) message between two nodes, with their
  // proximity distance. A failed endpoint gets distance 0 — the message is
  // normally dropped or ignored anyway.
  Message Direct(MessageType type, const NodeId& from, const NodeId& to, const FileId& file,
                 uint64_t payload_bytes);

  PastNetwork& net_;
  Transport& transport_;
};

// An in-flight client operation, as a PastClient user holds it through an
// OpHandle (client.h): an engine op, or the client's insert retry loop.
class ClientOp {
 public:
  virtual ~ClientOp() = default;
  virtual bool done() const = 0;
  // Abandons the op: the completion callback will not run, partial effects
  // (e.g. replicas stored by an unfinished insert attempt) are rolled back.
  virtual void Cancel() = 0;
};

// Base state machine. Derived ops implement their protocol as a chain of
// phases; the engine (op_engine.h) creates them, owns them, counts them,
// and drains them.
class AsyncOp : public OpCore, public ClientOp {
 public:
  // Reply handler / phase continuation types. Derived ops pass their own
  // member function pointers; the template overloads below upcast them.
  using Handler = void (AsyncOp::*)(const Delivery&);
  using Continuation = void (AsyncOp::*)();

  AsyncOp(const AsyncOp&) = delete;
  AsyncOp& operator=(const AsyncOp&) = delete;

  bool done() const override { return done_; }
  bool cancelled() const { return cancelled_; }
  bool timed_out() const { return timed_out_; }

  // Abandons the op before completion: outstanding handlers are closed (late
  // deliveries are ignored), partial effects are rolled back via OnCancel(),
  // and the completion callback is NOT invoked. No-op once done.
  void Cancel() override;

 protected:
  explicit AsyncOp(PastNetwork& net) : OpCore(net) {}

  // --- phase machinery (see file comment) ---

  // Opens a phase whose continuation is `next`. Every SendTracked() between
  // here and EndPhase() joins the phase; `next` runs when all of them have
  // completed, or when the op timeout forces the advance.
  void BeginPhase(Continuation next);
  template <typename D>
  void BeginPhase(void (D::*next)()) {
    BeginPhase(static_cast<Continuation>(next));
  }

  // Closes the phase bracket. A phase that issued no send has nothing to
  // wait for, so its continuation runs inline; otherwise the timeout timer
  // is armed and the continuation runs from the event queue.
  void EndPhase();

  // Counted send tracked by `ex`: `handler` runs at most once, only while
  // the issuing phase is current, with the delivery latency already added
  // to the op's client-path total. Handlers may issue further tracked sends
  // (chained replies join the same phase).
  void SendTracked(Exchange& ex, const Message& msg, Handler handler);
  template <typename D>
  void SendTracked(Exchange& ex, const Message& msg, void (D::*handler)(const Delivery&)) {
    SendTracked(ex, msg, static_cast<Handler>(handler));
  }

  // Completes the op: cancels the timer, closes all handlers, reports to
  // the engine, then runs the derived completion hook (which invokes the
  // user callback). Must be called exactly once, from a phase continuation.
  void FinishOp();

  // Derived completion hook: invoked by FinishOp() unless cancelled.
  virtual void OnFinish() = 0;

  // Derived cancel hook: roll back partial effects. Default: nothing.
  virtual void OnCancel() {}

  uint64_t messages_ = 0;    // fabric sends issued by this op
  double latency_ms_ = 0.0;  // simulated end-to-end latency on the client path

 private:
  friend class OpEngine;

  // Accepts (or rejects) one transport delivery for `ex` and dispatches its
  // handler. The single re-entry point for every tracked send.
  void OnDelivery(Exchange& ex, const Delivery& d);

  void Advance();

  // Set by OpEngine at creation so FinishOp can report completion.
  SimTime submitted_at_ = 0;

  bool done_ = false;
  bool cancelled_ = false;
  bool timed_out_ = false;
  uint64_t epoch_ = 0;       // current phase; stale deliveries are ignored
  uint64_t queued_ = 0;      // delivery copies sent and not yet landed
  uint64_t pending_ = 0;     // open exchanges + the phase bracket
  bool in_phase_ = false;
  Continuation next_ = nullptr;
  Transport::TimerId timer_ = 0;
  bool timer_armed_ = false;
};

}  // namespace past

#endif  // SRC_PAST_OPS_ASYNC_OP_H_
