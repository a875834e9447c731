#include "src/past/ops/op_engine.h"

#include <utility>

#include "src/common/logging.h"

namespace past {

OpEngine::OpEngine(PastNetwork& net) : net_(net) {
  obs::MetricsRegistry& metrics = net.metrics();
  submitted_ = &metrics.GetCounter("engine.ops.submitted");
  completed_ = &metrics.GetCounter("engine.ops.completed");
  cancelled_ = &metrics.GetCounter("engine.ops.cancelled");
  timed_out_ = &metrics.GetCounter("engine.ops.timed_out");
  in_flight_gauge_ = &metrics.GetGauge("engine.ops_in_flight");
  peak_gauge_ = &metrics.GetGauge("engine.ops_in_flight_peak");
  // Virtual submit-to-completion time: one-hop exchanges land in the tens of
  // milliseconds, queued ops under overload reach the op-timeout scale.
  op_latency_ = &metrics.GetHistogram("engine.op_latency_ms",
                                      obs::ExponentialBuckets(1.0, 2.0, 14));
}

void OpEngine::OnOpStarted(AsyncOp& op) {
  op.submitted_at_ = net_.transport().now();
  submitted_->Inc();
  ++in_flight_;
  in_flight_gauge_->Set(static_cast<double>(in_flight_));
  if (in_flight_ > peak_in_flight_) {
    peak_in_flight_ = in_flight_;
    peak_gauge_->Set(static_cast<double>(peak_in_flight_));
  }
}

void OpEngine::OnOpFinished(AsyncOp& op) {
  --in_flight_;
  in_flight_gauge_->Set(static_cast<double>(in_flight_));
  completed_->Inc();
  if (op.cancelled()) {
    cancelled_->Inc();
  }
  if (op.timed_out()) {
    timed_out_->Inc();
  }
  op_latency_->Observe(static_cast<double>(net_.transport().now() - op.submitted_at_));

  // Move the op from live to retired — never destroy it here. An op usually
  // finishes from inside its own delivery or timer dispatch, with its frames
  // on the stack and possibly straggler deliveries still queued; the retired
  // list keeps it alive until ReapRetired() proves nothing references it.
  // Reverse scan: under overlap, completions drain roughly in submission
  // order, but the common single-op case finishes the just-pushed back.
  for (size_t i = live_.size(); i-- > 0;) {
    if (live_[i].get() == &op) {
      retired_.push_back(std::move(live_[i]));
      live_[i] = std::move(live_.back());
      live_.pop_back();
      break;
    }
  }
}

void OpEngine::ReapRetired() {
  if (retired_.empty() || dispatch_depth_ != 0 || net_.transport().InFlightDeliveries() != 0) {
    return;
  }
  retired_.clear();
}

template <typename Op, typename... Args>
std::shared_ptr<Op> OpEngine::Launch(Args&&... args) {
  ReapRetired();
  auto op = std::make_shared<Op>(net_, std::forward<Args>(args)...);
  live_.push_back(op);
  OnOpStarted(*op);
  {
    DispatchGuard guard(*this);
    op->Start();
  }
  return op;
}

std::shared_ptr<InsertOp> OpEngine::StartInsert(const NodeId& origin,
                                                const FileCertificate& certificate,
                                                uint64_t size, FileContentRef content,
                                                InsertOp::Callback callback) {
  return Launch<InsertOp>(origin, certificate, size, std::move(content), std::move(callback));
}

std::shared_ptr<LookupOp> OpEngine::StartLookup(const NodeId& origin, const FileId& file_id,
                                                LookupOp::Callback callback) {
  return Launch<LookupOp>(origin, file_id, std::move(callback));
}

std::shared_ptr<ReclaimOp> OpEngine::StartReclaim(const NodeId& origin,
                                                  const ReclaimCertificate& certificate,
                                                  ReclaimOp::Callback callback) {
  return Launch<ReclaimOp>(origin, certificate, std::move(callback));
}

bool OpEngine::Poll() {
  ReapRetired();
  return net_.transport().StepOne();
}

void OpEngine::WaitAll() {
  while (in_flight_ > 0) {
    if (!Poll()) {
      PAST_LOG(kError) << "OpEngine::WaitAll: transport idle with " << in_flight_
                       << " op(s) unfinished";
      return;
    }
  }
}

}  // namespace past
