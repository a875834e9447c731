// Event-driven operation engine core: per-op state machines over the
// message fabric.
//
// Each client-visible operation (insert / lookup / reclaim) is an AsyncOp —
// a heap-allocated state machine that issues protocol messages, registers
// reply handlers, and arms a timeout timer on the transport instead of
// blocking in Settle(). The op advances through *phases*: a phase issues a
// batch of sends, then waits until every exchange it opened has accepted a
// delivery — or until the op timeout fires first — and then runs its
// continuation, which inspects the Exchange flags to tell a completed
// protocol step from a timed-out one. The inspection code is the same
// either way, which is exactly the old post-Settle() contract in
// event-driven form.
//
// Hot-path design: reply handlers and phase continuations are member
// function pointers, not std::functions, and the closure handed to
// Transport::Send captures exactly two raw words (the op and the exchange).
// That keeps every per-send callable inside std::function's small-buffer
// optimization — zero heap allocations per send, which is what keeps the
// engine's insert/lookup throughput at the pre-engine coordinators' level.
// Per-exchange state a handler needs lives in named op members, not lambda
// captures: the op object IS the closure.
//
// Handler lifetime rules (enforced by the engine, see op_engine.h):
//  * The engine owns every op it starts and keeps it alive until the
//    transport can no longer reference it: a finished op is moved to a
//    retired list and only reaped at engine safe points, when no dispatch
//    is on the stack and no delivery is in flight. Raw op pointers inside
//    transport closures — including straggler duplicates arriving after the
//    op completed — therefore always point at a live op.
//  * Every reply handler is keyed to an Exchange and to the phase (epoch)
//    that opened it. A delivery for a completed exchange, a past phase, or
//    a finished op is ignored: late replies land on closed handlers and
//    have no effect. This is what makes "timeout fired, op rolled back,
//    duplicate reply still in flight" safe.
//
// Determinism contract: ops schedule work only through the transport
// (deliveries and timers on the driving EventQueue); they never read wall
// clocks or draw extra randomness. For a fixed seed and submission order,
// the interleaving of any number of in-flight ops is identical run to run.
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
// (duplicate deliveries are absorbed) and records whether the leg completed
// — the flag the phase continuation inspects where the old coordinators
// read their stack-frame `*_handled` booleans.
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

  // Builds a direct (one-hop) message between two nodes, with the proximity
  // distance looked up from the emulated topology. Endpoints that have left
  // the topology (failed nodes) get distance 0 — the message is normally
  // dropped or ignored anyway.
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
  uint64_t pending_ = 0;     // open exchanges + the phase bracket
  bool in_phase_ = false;
  Continuation next_ = nullptr;
  Transport::TimerId timer_ = 0;
  bool timer_armed_ = false;
};

}  // namespace past

#endif  // SRC_PAST_OPS_ASYNC_OP_H_
