// Timing decorators installed through the seams the library already exposes:
// a Transport (PastNetwork::set_transport) and a StorageEnv
// (PastNetwork::UseDurableStore). Each wraps the real implementation, which
// still does all the work and all TransportStats accounting; the decorator
// only opens spans in a SpanLog and counts.
#ifndef PERFBENCH_SRC_TIMING_LAYERS_H_
#define PERFBENCH_SRC_TIMING_LAYERS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/src/span_log.h"
#include "src/net/transport.h"
#include "src/storage/storage_env.h"

namespace perfbench {

// Client op ids carry their kind in the low two bits, so a send can be
// charged to the kind of op that caused it.
enum OpKind : uint64_t { kOpNone = 0, kOpInsert = 1, kOpLookup = 2, kOpReclaim = 3 };
inline uint64_t MakeOpId(uint64_t seq, OpKind kind) { return (seq << 2) | kind; }
inline OpKind KindOf(uint64_t op) { return static_cast<OpKind>(op & 3); }

// A routed request seen on the wire, kept for the Route replay timer.
struct RoutePair {
  past::NodeId origin;
  past::NodeId key;
};

class TimingTransport final : public past::Transport {
 public:
  TimingTransport(std::unique_ptr<past::Transport> inner, SpanLog& log, size_t pair_stride)
      : Transport(&inner->stats()),
        inner_(std::move(inner)),
        log_(log),
        pair_stride_(pair_stride == 0 ? 1 : pair_stride) {}

  void Send(const past::Message& msg, DeliverFn on_deliver) override {
    uint64_t op = log_.current_op();
    ++sends_by_kind_[KindOf(op)];
    if (msg.type == past::MessageType::kInsertRequest ||
        msg.type == past::MessageType::kLookupRequest) {
      if (routed_seen_++ % pair_stride_ == 0) {
        pairs_.push_back(RoutePair{msg.from, msg.file.ToRoutingKey()});
      }
    }
    if (!on_deliver) {
      inner_->Send(msg, nullptr);
      return;
    }
    SpanKind kind = DeliverKind(msg.type);
    inner_->Send(msg, [this, op, kind, fn = std::move(on_deliver)](const past::Delivery& d) {
      SpanScope span(&log_, kind, op);
      fn(d);
    });
  }

  void Settle() override { inner_->Settle(); }
  past::SimTime now() const override { return inner_->now(); }

  TimerId ScheduleTimer(past::SimTime delay_ms, std::function<void()> fn) override {
    if (!fn) {
      return inner_->ScheduleTimer(delay_ms, nullptr);
    }
    uint64_t op = log_.current_op();
    return inner_->ScheduleTimer(delay_ms, [this, op, fn = std::move(fn)]() {
      SpanScope span(&log_, SpanKind::kTimer, op);
      fn();
    });
  }
  bool CancelTimer(TimerId id) override { return inner_->CancelTimer(id); }

  bool StepOne() override {
    SpanScope span(&log_, SpanKind::kStep, 0);
    return inner_->StepOne();
  }

  uint64_t InFlightDeliveries() const override { return inner_->InFlightDeliveries(); }

  uint64_t sends_by_kind(OpKind kind) const { return sends_by_kind_[kind]; }
  const std::vector<RoutePair>& pairs() const { return pairs_; }

 private:
  std::unique_ptr<past::Transport> inner_;
  SpanLog& log_;
  size_t pair_stride_;
  uint64_t routed_seen_ = 0;
  std::array<uint64_t, 4> sends_by_kind_{};
  std::vector<RoutePair> pairs_;
};

class TimingEnv final : public past::StorageEnv {
 public:
  TimingEnv(past::StorageEnv& inner, SpanLog& log) : inner_(inner), log_(log) {}

  bool Append(const std::string& dir, const std::string& name, std::string_view data) override {
    SpanScope span(&log_, SpanKind::kStorageAppend);
    append_bytes_ += data.size();
    return inner_.Append(dir, name, data);
  }
  bool Fsync(const std::string& dir, const std::string& name) override {
    SpanScope span(&log_, SpanKind::kStorageFsync);
    return inner_.Fsync(dir, name);
  }
  bool Read(const std::string& dir, const std::string& name, std::string* out) override {
    SpanScope span(&log_, SpanKind::kStorageRead);
    bool ok = inner_.Read(dir, name, out);
    if (ok) {
      read_bytes_ += out->size();
    }
    return ok;
  }
  std::vector<std::string> List(const std::string& dir) override {
    SpanScope span(&log_, SpanKind::kStorageOther);
    return inner_.List(dir);
  }
  bool Rename(const std::string& dir, const std::string& from, const std::string& to) override {
    SpanScope span(&log_, SpanKind::kStorageRename);
    return inner_.Rename(dir, from, to);
  }
  bool Remove(const std::string& dir, const std::string& name) override {
    SpanScope span(&log_, SpanKind::kStorageOther);
    return inner_.Remove(dir, name);
  }

  uint64_t append_bytes() const { return append_bytes_; }
  uint64_t read_bytes() const { return read_bytes_; }

 private:
  past::StorageEnv& inner_;
  SpanLog& log_;
  uint64_t append_bytes_ = 0;
  uint64_t read_bytes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TIMING_LAYERS_H_
