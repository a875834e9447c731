// SpanLog: the benchmark's in-memory span recorder.
//
// A span is one timed call into a layer: a PastClient call, a transport
// step, a message delivery, a timer callback, a storage syscall. Spans nest
// on a stack (everything here runs on one thread), carry the id of the
// client op that caused them, and are aggregated as they close: each span's
// self time is its duration minus the time its direct children cover, and
// self times add up per span kind, so together they cover the root spans'
// durations exactly.
//
// With keep_spans the closed spans are also kept in a vector (tests check
// the tree shape from it); the benchmark itself keeps aggregates only.
#ifndef PERFBENCH_SRC_SPAN_LOG_H_
#define PERFBENCH_SRC_SPAN_LOG_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/net/message.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kClientInsert,
  kClientLookup,
  kClientReclaim,
  kMembership,  // PastNetwork::FailStorageNode
  kStep,        // one Transport::StepOne
  kTimer,       // a transport timer callback
  kStorageAppend,
  kStorageFsync,
  kStorageRead,
  kStorageRename,
  kStorageOther,  // List / Remove
  kDeliverFirst,  // + MessageType: one delivery continuation
};

inline constexpr size_t kSpanKindCount =
    static_cast<size_t>(SpanKind::kDeliverFirst) + past::kMessageTypeCount;

inline SpanKind DeliverKind(past::MessageType type) {
  return static_cast<SpanKind>(static_cast<size_t>(SpanKind::kDeliverFirst) +
                               static_cast<size_t>(type));
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  // Span id meaning "the op of the enclosing span".
  static constexpr uint64_t kInheritOp = ~uint64_t{0};

  struct Record {
    SpanKind kind;
    int64_t parent;  // index into spans(), -1 for a root
    uint64_t op;
    int64_t start_ns;
    int64_t end_ns;
  };

  explicit SpanLog(bool keep_spans = false) : keep_spans_(keep_spans) {}

  void Open(SpanKind kind, uint64_t op) {
    if (op == kInheritOp) {
      op = stack_.empty() ? 0 : stack_.back().op;
    }
    if (!stack_.empty()) {
      Frame& parent = stack_.back();
      // A transport step learns its op from the delivery it runs.
      if (parent.op == 0) {
        parent.op = op;
      } else if (op != 0 && op != parent.op) {
        ++op_mismatches_;
      }
      if (op == 0) {
        op = parent.op;
      }
    }
    Frame frame;
    frame.kind = kind;
    frame.op = op;
    frame.start_ns = NowNs();
    if (keep_spans_) {
      frame.record = static_cast<int64_t>(spans_.size());
      spans_.push_back(
          Record{kind, stack_.empty() ? -1 : stack_.back().record, op, frame.start_ns, 0});
    }
    stack_.push_back(frame);
  }

  void Close() {
    Frame frame = stack_.back();
    stack_.pop_back();
    int64_t end = NowNs();
    int64_t duration = end - frame.start_ns;
    size_t kind = static_cast<size_t>(frame.kind);
    self_ns_[kind] += duration - frame.child_ns;
    ++count_[kind];
    if (!stack_.empty()) {
      stack_.back().child_ns += duration;
    } else {
      root_ns_ += duration;
    }
    if (keep_spans_) {
      Record& r = spans_[static_cast<size_t>(frame.record)];
      r.end_ns = end;
      r.op = frame.op;  // a step span learns its op after it opened
    }
  }

  // Drops the aggregates (not kept spans): the timed phase starts from zero
  // even when set-up already ran through the decorators.
  void ResetTotals() {
    self_ns_ = {};
    count_ = {};
    root_ns_ = 0;
  }

  uint64_t current_op() const { return stack_.empty() ? 0 : stack_.back().op; }

  int64_t self_ns(SpanKind kind) const { return self_ns_[static_cast<size_t>(kind)]; }
  uint64_t count(SpanKind kind) const { return count_[static_cast<size_t>(kind)]; }
  // Total duration of the root spans, measured apart from the self times.
  int64_t root_ns() const { return root_ns_; }
  uint64_t op_mismatches() const { return op_mismatches_; }
  const std::vector<Record>& spans() const { return spans_; }

 private:
  struct Frame {
    SpanKind kind = SpanKind::kStep;
    uint64_t op = 0;
    int64_t start_ns = 0;
    int64_t child_ns = 0;
    int64_t record = -1;
  };

  bool keep_spans_;
  std::vector<Frame> stack_;
  std::array<int64_t, kSpanKindCount> self_ns_{};
  std::array<uint64_t, kSpanKindCount> count_{};
  int64_t root_ns_ = 0;
  uint64_t op_mismatches_ = 0;
  std::vector<Record> spans_;
};

// Opens a span for its lifetime; a null log makes it a no-op, which is how
// the untraced run shares code with the traced one.
class SpanScope {
 public:
  SpanScope(SpanLog* log, SpanKind kind, uint64_t op = SpanLog::kInheritOp) : log_(log) {
    if (log_ != nullptr) {
      log_->Open(kind, op);
    }
  }
  ~SpanScope() {
    if (log_ != nullptr) {
      log_->Close();
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPAN_LOG_H_
