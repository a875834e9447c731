// OpEngine: submission and completion tracking for the event-driven client
// operations (async_op.h).
//
// The engine creates the per-op state machines, counts in-flight ops, and
// provides the drain primitives the client API is built on:
//
//   auto op = engine.StartLookup(origin, id, [](const LookupResult& r) {...});
//   engine.Poll();       // one event; returns whether anything ran
//   engine.WaitAll();    // pump transport events until no op is in flight
//
// PastClient::Wait pumps Poll() until one op is done. Any number of ops
// overlap; deliveries, op timeouts, and co-scheduled timers (keep-alive
// rounds) interleave in virtual-time order.
// Ownership: the engine owns every op it starts and keeps a finished one on
// a retired list until the transport can no longer reference it (the
// lifetime rules in async_op.h); safe points are engine entry (Start*/Poll).
#ifndef SRC_PAST_OPS_OP_ENGINE_H_
#define SRC_PAST_OPS_OP_ENGINE_H_

#include <memory>
#include <vector>

#include "src/past/ops/insert_op.h"
#include "src/past/ops/lookup_op.h"
#include "src/past/ops/reclaim_op.h"

namespace past {

class OpEngine {
 public:
  explicit OpEngine(PastNetwork& net);

  OpEngine(const OpEngine&) = delete;
  OpEngine& operator=(const OpEngine&) = delete;

  // Marks a dispatch (delivery or timer fire) on the stack. While any guard
  // is alive retired ops are not reaped: an op may finish inside its own
  // handler, with its frames still unwinding — and a completion callback may
  // re-enter the engine (submit ops, Poll) from under those frames.
  class DispatchGuard {
   public:
    explicit DispatchGuard(OpEngine& engine) : engine_(engine) { ++engine_.dispatch_depth_; }
    ~DispatchGuard() { --engine_.dispatch_depth_; }
    DispatchGuard(const DispatchGuard&) = delete;
    DispatchGuard& operator=(const DispatchGuard&) = delete;

   private:
    OpEngine& engine_;
  };

  // --- submission (the PastClient Begin* surface routes here) ---

  std::shared_ptr<InsertOp> StartInsert(const NodeId& origin, const FileCertificate& certificate,
                                        uint64_t size, FileContentRef content,
                                        InsertOp::Callback callback);

  std::shared_ptr<LookupOp> StartLookup(const NodeId& origin, const FileId& file_id,
                                        LookupOp::Callback callback);

  // `on_cancel` runs with the partial result if the op is cancelled
  // (reclaim_op.h).
  std::shared_ptr<ReclaimOp> StartReclaim(const NodeId& origin,
                                          const ReclaimCertificate& certificate,
                                          ReclaimOp::Callback callback,
                                          ReclaimOp::Callback on_cancel);

  // --- drain ---

  // Advances the transport by one event (delivery or timer); returns whether
  // anything ran. False with ops in flight means the drive queue is empty —
  // impossible while any phase timeout is armed.
  bool Poll();

  // Pumps until no op is in flight.
  void WaitAll();

  uint64_t in_flight() const { return in_flight_; }
  uint64_t peak_in_flight() const { return peak_in_flight_; }

 private:
  friend class AsyncOp;

  // Reaps, takes ownership of a new Op(net_, args...), counts it in flight
  // and starts it: the shared body of the Start* submitters.
  template <typename Op, typename... Args>
  std::shared_ptr<Op> Launch(Args&&... args);

  // Engine bookkeeping around an op's lifetime (called by AsyncOp/Launch).
  void OnOpStarted(AsyncOp& op);
  void OnOpFinished(AsyncOp& op);

  // Frees the retired ops nothing can still reference: with no dispatch on
  // the stack, those with no delivery of their own in flight, or all of
  // them when the transport has none in flight (this also frees ops whose
  // transport was replaced before their copies landed).
  void ReapRetired();

  PastNetwork& net_;
  uint64_t in_flight_ = 0;
  uint64_t peak_in_flight_ = 0;
  uint64_t dispatch_depth_ = 0;

  // Unfinished ops (live_) and finished ops the transport may still hold
  // raw pointers to (retired_) — see the file comment.
  std::vector<std::shared_ptr<AsyncOp>> live_;
  std::vector<std::shared_ptr<AsyncOp>> retired_;

  // Pre-fetched instruments (hot path: one op can be sub-microsecond).
  obs::Counter* submitted_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* cancelled_ = nullptr;
  obs::Counter* timed_out_ = nullptr;
  obs::Gauge* in_flight_gauge_ = nullptr;
  obs::Gauge* peak_gauge_ = nullptr;
  obs::HistogramMetric* op_latency_ = nullptr;
};

}  // namespace past

#endif  // SRC_PAST_OPS_OP_ENGINE_H_
