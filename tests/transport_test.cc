// Message-fabric tests: the zero-latency default transport, SimTransport latency
// scheduling, fault injection (drop / duplicate / delay / partition /
// targeted drops), and delivery-order determinism.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "src/net/latency_model.h"
#include "src/net/sim_transport.h"
#include "src/net/transport.h"
#include "src/sim/event_queue.h"

namespace past {
namespace {

NodeId MakeId(uint8_t tag) { return NodeId(tag, 0); }

Message MakeMessage(MessageType type, uint8_t from, uint8_t to, uint64_t payload) {
  Message msg;
  msg.type = type;
  msg.from = MakeId(from);
  msg.to = MakeId(to);
  msg.payload_bytes = payload;
  msg.hops = 1;
  msg.distance = 0.0;
  return msg;
}

TEST(InlineTransportTest, DeliversFromItsQueueAtZeroLatency) {
  TransportStats stats;
  InlineTransport transport(&stats);
  std::vector<int> order;
  auto send = [&](int tag, uint64_t payload) {
    transport.Send(MakeMessage(MessageType::kAck, 1, 2, payload), [&, tag](const Delivery& d) {
      order.push_back(tag);
      EXPECT_EQ(d.latency_ms, 0.0);
      EXPECT_EQ(d.at, 0u);
      EXPECT_EQ(d.message.type, MessageType::kAck);
    });
  };
  send(0, 1 << 20);  // no payload is large enough to cost time
  send(1, 0);
  send(2, 0);
  EXPECT_TRUE(order.empty());  // nothing arrives inside Send()
  EXPECT_EQ(transport.InFlightDeliveries(), 3u);
  EXPECT_FALSE(transport.Idle());
  EXPECT_TRUE(transport.StepOne());
  EXPECT_EQ(order, (std::vector<int>{0}));
  transport.Settle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));  // FIFO send order
  EXPECT_TRUE(transport.Idle());
  EXPECT_FALSE(transport.StepOne());
  EXPECT_EQ(transport.now(), 0u);
  EXPECT_EQ(stats.sends(MessageType::kAck), 3u);
  EXPECT_EQ(stats.total_sends(), 3u);
}

TEST(InlineTransportTest, CostClassesFeedLegacyTallies) {
  TransportStats stats;
  InlineTransport transport(&stats);
  // One send of every type, type i carrying 2^i payload bytes, so
  // bytes_sent() names exactly the types charged as data messages.
  for (size_t i = 0; i < kMessageTypeCount; ++i) {
    transport.Send(MakeMessage(static_cast<MessageType>(i), 1, 2, uint64_t{1} << i), nullptr);
  }
  // Data messages: kStoreReplica (2^1) and kKeepAliveProbe (2^10).
  EXPECT_EQ(stats.messages(), 2u);
  EXPECT_EQ(stats.bytes_sent(), (uint64_t{1} << 1) + (uint64_t{1} << 10));
  // RPCs: kDivertRequest, kInstallPointer.
  EXPECT_EQ(stats.rpcs(), 2u);
  for (size_t i = 0; i < kMessageTypeCount; ++i) {
    EXPECT_EQ(stats.sends(static_cast<MessageType>(i)), 1u)
        << MessageTypeName(static_cast<MessageType>(i));
  }
  EXPECT_EQ(stats.total_sends(), kMessageTypeCount);
}

TEST(SimTransportTest, SchedulesDeliveryAtModelLatency) {
  EventQueue queue;
  TransportStats stats;
  SimTransport::Options options;
  options.latency = LatencyModel::Lan();
  SimTransport transport(queue, options, &stats);

  Message msg = MakeMessage(MessageType::kStoreReplica, 1, 2, 1024);
  double expected = LatencyModel::Lan().FetchLatencyMs(1, 0.0, 1024);
  bool delivered = false;
  transport.Send(msg, [&](const Delivery& d) {
    delivered = true;
    EXPECT_DOUBLE_EQ(d.latency_ms, expected);
  });
  EXPECT_FALSE(delivered);  // nothing happens until the queue runs
  EXPECT_EQ(transport.in_flight(), 1u);
  transport.Settle();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(transport.in_flight(), 0u);
  EXPECT_EQ(transport.delivered(), 1u);
  // Virtual time advanced to the (rounded) delivery latency.
  EXPECT_EQ(queue.now(), static_cast<SimTime>(expected + 0.5));
}

TEST(SimTransportTest, FifoAmongEqualLatencies) {
  EventQueue queue;
  TransportStats stats;
  SimTransport transport(queue, SimTransport::Options{}, &stats);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    transport.Send(MakeMessage(MessageType::kAck, 1, 2, 0),
                   [&order, i](const Delivery&) { order.push_back(i); });
  }
  transport.Settle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimTransportTest, DropProbabilityOneDropsEverything) {
  EventQueue queue;
  TransportStats stats;
  SimTransport::Options options;
  options.faults.drop_probability = 1.0;
  SimTransport transport(queue, options, &stats);
  bool delivered = false;
  transport.Send(MakeMessage(MessageType::kStoreReplica, 1, 2, 100),
                 [&](const Delivery&) { delivered = true; });
  transport.Settle();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(stats.dropped(), 1u);
  EXPECT_EQ(stats.sends(MessageType::kStoreReplica), 1u);  // still accounted as sent
}

TEST(SimTransportTest, DuplicateProbabilityOneDeliversTwice) {
  EventQueue queue;
  TransportStats stats;
  SimTransport::Options options;
  options.faults.duplicate_probability = 1.0;
  SimTransport transport(queue, options, &stats);
  int deliveries = 0;
  transport.Send(MakeMessage(MessageType::kAck, 1, 2, 0),
                 [&](const Delivery&) { ++deliveries; });
  transport.Settle();
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(stats.duplicated(), 1u);
  EXPECT_EQ(stats.sends(MessageType::kAck), 1u);  // one logical send
}

TEST(SimTransportTest, DelayFaultAddsConfiguredDelay) {
  EventQueue queue;
  TransportStats stats;
  SimTransport::Options options;
  options.latency = LatencyModel::Lan();
  options.faults.delay_probability = 1.0;
  options.faults.delay_ms = 500.0;
  SimTransport transport(queue, options, &stats);
  double expected = LatencyModel::Lan().FetchLatencyMs(1, 0.0, 64) + 500.0;
  double seen = 0.0;
  transport.Send(MakeMessage(MessageType::kAck, 1, 2, 64),
                 [&](const Delivery& d) { seen = d.latency_ms; });
  transport.Settle();
  EXPECT_DOUBLE_EQ(seen, expected);
  EXPECT_EQ(stats.delayed(), 1u);
}

TEST(SimTransportTest, PartitionCutsBothDirectionsUntilHealed) {
  EventQueue queue;
  TransportStats stats;
  SimTransport transport(queue, SimTransport::Options{}, &stats);
  NodeId cut = MakeId(2);
  transport.Partition(cut);
  EXPECT_TRUE(transport.IsPartitioned(cut));

  int deliveries = 0;
  auto count = [&](const Delivery&) { ++deliveries; };
  transport.Send(MakeMessage(MessageType::kAck, 1, 2, 0), count);  // into the partition
  transport.Send(MakeMessage(MessageType::kAck, 2, 1, 0), count);  // out of the partition
  transport.Send(MakeMessage(MessageType::kAck, 1, 3, 0), count);  // unaffected pair
  transport.Settle();
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(stats.dropped(), 2u);

  transport.Heal(cut);
  transport.Send(MakeMessage(MessageType::kAck, 1, 2, 0), count);
  transport.Settle();
  EXPECT_EQ(deliveries, 2);
}

TEST(SimTransportTest, DropNextTargetsExactlyNOfType) {
  EventQueue queue;
  TransportStats stats;
  SimTransport transport(queue, SimTransport::Options{}, &stats);
  transport.DropNext(MessageType::kStoreReplica, 2);
  int stores = 0;
  int acks = 0;
  for (int i = 0; i < 4; ++i) {
    transport.Send(MakeMessage(MessageType::kStoreReplica, 1, 2, 10),
                   [&](const Delivery&) { ++stores; });
    transport.Send(MakeMessage(MessageType::kAck, 2, 1, 0), [&](const Delivery&) { ++acks; });
  }
  transport.Settle();
  EXPECT_EQ(stores, 2);  // first two kStoreReplica sends were swallowed
  EXPECT_EQ(acks, 4);
  EXPECT_EQ(stats.dropped(), 2u);
}

// For a fixed seed, fault decisions and delivery order are identical run to
// run — the determinism contract SimTransport documents.
std::vector<std::string> RunDeterminismSequence(uint64_t seed) {
  EventQueue queue;
  TransportStats stats;
  SimTransport::Options options;
  options.latency = LatencyModel::Wan();
  options.faults.drop_probability = 0.2;
  options.faults.duplicate_probability = 0.2;
  options.faults.delay_probability = 0.2;
  options.faults.delay_ms = 40.0;
  options.seed = seed;
  SimTransport transport(queue, options, &stats);

  std::vector<std::string> log;
  for (int i = 0; i < 50; ++i) {
    Message msg = MakeMessage(i % 2 == 0 ? MessageType::kStoreReplica : MessageType::kAck, 1,
                              static_cast<uint8_t>(2 + i % 3), 128 * (i % 5));
    msg.distance = 0.3 * (i % 4);
    transport.Send(msg, [&log, i](const Delivery& d) {
      log.push_back(std::to_string(i) + "@" + std::to_string(d.at) + "/" +
                    std::to_string(d.latency_ms));
    });
  }
  transport.Settle();
  return log;
}

TEST(SimTransportTest, DeliveryOrderIsDeterministicForFixedSeed) {
  std::vector<std::string> a = RunDeterminismSequence(1234);
  std::vector<std::string> b = RunDeterminismSequence(1234);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
  // A different seed makes different fault decisions for this sequence.
  std::vector<std::string> c = RunDeterminismSequence(99);
  EXPECT_NE(a, c);
}

TEST(SimTransportTest, RepliesFromContinuationsSettleInOneCall) {
  // The coordinator pattern: a request whose continuation sends a reply;
  // Settle() drains both legs.
  EventQueue queue;
  TransportStats stats;
  SimTransport::Options options;
  options.latency = LatencyModel::Lan();
  SimTransport transport(queue, options, &stats);

  bool reply_arrived = false;
  transport.Send(MakeMessage(MessageType::kLookupRequest, 1, 2, 0), [&](const Delivery&) {
    transport.Send(MakeMessage(MessageType::kFetchReply, 2, 1, 2048),
                   [&](const Delivery&) { reply_arrived = true; });
  });
  transport.Settle();
  EXPECT_TRUE(reply_arrived);
  EXPECT_EQ(transport.in_flight(), 0u);
  EXPECT_EQ(transport.delivered(), 2u);
}

TEST(SimTransportTest, DeliverySlotsReusedMidDeliveryKeepEachMessage) {
  // Every continuation sends three more messages from inside its delivery,
  // and every message is delivered twice, so parked slots are freed and
  // reused while deliveries are still running. Each delivery must still see
  // exactly the message it was sent with, and its own latency.
  EventQueue queue;
  TransportStats stats;
  SimTransport::Options options;
  options.latency = LatencyModel::Lan();
  options.faults.duplicate_probability = 1.0;
  SimTransport transport(queue, options, &stats);

  uint64_t sends = 0;
  uint64_t deliveries = 0;
  uint64_t mismatches = 0;
  std::function<void(int)> send_three = [&](int depth) {
    for (int i = 0; i < 3; ++i) {
      const uint64_t n = ++sends;
      Message msg;
      msg.type = static_cast<MessageType>(n % kMessageTypeCount);
      msg.from = NodeId(n, 1);
      msg.to = NodeId(n, 2);
      std::array<uint8_t, FileId::kBytes> file{};
      file[0] = static_cast<uint8_t>(n);
      file[1] = static_cast<uint8_t>(n >> 8);
      msg.file = FileId(file);
      msg.payload_bytes = (n * 7919) % 20'000;  // spreads the arrival times
      msg.hops = 1 + static_cast<int>(n % 3);
      const double latency = options.latency.FetchLatencyMs(msg.hops, 0.0, msg.payload_bytes);
      transport.Send(msg, [&, msg, latency, depth](const Delivery& d) {
        ++deliveries;
        const Message& got = d.message;
        if (got.type != msg.type || got.from != msg.from || got.to != msg.to ||
            got.file != msg.file || got.payload_bytes != msg.payload_bytes ||
            got.hops != msg.hops || d.latency_ms != latency) {
          ++mismatches;
        }
        if (depth < 3) {
          send_three(depth + 1);
        }
        // The slot this delivery came from may hold another message by now;
        // the Delivery it was handed is still its own.
        if (d.message.from != msg.from || d.message.payload_bytes != msg.payload_bytes) {
          ++mismatches;
        }
      });
    }
  };
  send_three(0);
  EXPECT_EQ(transport.in_flight(), 6u);
  transport.Settle();
  // 3 sends at depth 0, and every one of the 2 copies sends 3 more.
  EXPECT_EQ(sends, 3u + 18u + 108u + 648u);
  EXPECT_EQ(deliveries, 2 * sends);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(transport.in_flight(), 0u);
  EXPECT_EQ(transport.delivered(), deliveries);
  EXPECT_EQ(stats.duplicated(), sends);
  EXPECT_TRUE(transport.Idle());
}

TEST(TransportStatsTest, ExportsPerTypeAndFaultGaugesOnlyWhenNonzero) {
  TransportStats stats;
  obs::MetricsSnapshot clean;
  stats.ExportTo(clean, "net.");
  EXPECT_EQ(clean.gauges.count("net.msg.store_replica"), 0u);
  EXPECT_EQ(clean.gauges.count("net.faults.dropped"), 0u);
  EXPECT_EQ(clean.gauges.count("net.messages"), 1u);  // legacy keys always present

  stats.RecordSend(MessageType::kStoreReplica);
  stats.RecordDrop();
  obs::MetricsSnapshot after;
  stats.ExportTo(after, "net.");
  EXPECT_EQ(after.GaugeValue("net.msg.store_replica"), 1.0);
  EXPECT_EQ(after.GaugeValue("net.faults.dropped"), 1.0);
}

}  // namespace
}  // namespace past
