#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <random>
#include <unordered_set>
#include <vector>

#include "src/sim/event_queue.h"

namespace past {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAfter(30, [&] { order.push_back(3); });
  q.ScheduleAfter(10, [&] { order.push_back(1); });
  q.ScheduleAfter(20, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueueTest, FifoAmongEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAfter(5, [&] { order.push_back(1); });
  q.ScheduleAfter(5, [&] { order.push_back(2); });
  q.ScheduleAfter(5, [&] { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  int ran = 0;
  q.ScheduleAfter(10, [&] { ++ran; });
  q.ScheduleAfter(20, [&] { ++ran; });
  q.ScheduleAfter(30, [&] { ++ran; });
  EXPECT_EQ(q.RunUntil(20), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(q.now(), 20u);
  EXPECT_EQ(q.LiveCount(), 1u);
}

TEST(EventQueueTest, RunUntilSkipsACancelledFrontWithoutOvershooting) {
  // A cancelled item due by `until` at the front must not let the next live
  // event run when that one is due later.
  EventQueue q;
  int ran = 0;
  auto id = q.ScheduleAfter(5, [&] { ++ran; });
  q.ScheduleAfter(50, [&] { ++ran; });
  ASSERT_TRUE(q.Cancel(id));
  EXPECT_EQ(q.RunUntil(10), 0u);
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(q.now(), 10u);
  EXPECT_EQ(q.LiveCount(), 1u);
  EXPECT_EQ(q.RunUntil(50), 1u);
  EXPECT_EQ(ran, 1);
}

TEST(EventQueueTest, CancelledTimersAtAStandingClockStayBounded) {
  // The zero-latency pattern: each op phase arms a timer far ahead and
  // cancels it, while deliveries run at a clock that never advances. A live
  // timer due first (another op's timeout, a keep-alive round) keeps the
  // cancelled ones off the front, so only dropping them keeps the queue
  // from growing with the run.
  EventQueue q;
  q.ScheduleAfter(1000, [] {});
  uint64_t ran = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    EventQueue::EventId timer = q.ScheduleAfter(2000, [] {});
    q.ScheduleAfter(0, [&] { ++ran; });
    ASSERT_TRUE(q.Cancel(timer));
    ASSERT_TRUE(q.Step());
    ASSERT_LE(q.QueuedItems(), 2 * q.LiveCount() + EventQueue::kDropThreshold) << "pair " << i;
  }
  EXPECT_EQ(ran, 1'000'000u);
  EXPECT_EQ(q.now(), 0u);
  EXPECT_EQ(q.LiveCount(), 1u);
}

TEST(EventQueueTest, DroppingCancelledItemsKeepsRunOrder) {
  // Cancelling most of a batch drops the cancelled items from the heap and
  // the lane in several passes; the survivors still run by (when, FIFO).
  EventQueue q;
  std::mt19937_64 rng(7);
  std::vector<int> order;
  std::vector<EventQueue::EventId> ids;
  std::vector<std::pair<SimTime, int>> survivors;
  for (int i = 0; i < 2000; ++i) {
    SimTime delay = i % 3 == 0 ? 0 : 1 + rng() % 50;
    ids.push_back(q.ScheduleAfter(delay, [&order, i] { order.push_back(i); }));
    if (i % 10 == 0) {
      survivors.emplace_back(delay, i);
    }
  }
  std::vector<int> doomed;
  for (int i = 0; i < 2000; ++i) {
    if (i % 10 != 0) {
      doomed.push_back(i);
    }
  }
  std::shuffle(doomed.begin(), doomed.end(), rng);
  for (int i : doomed) {
    ASSERT_TRUE(q.Cancel(ids[static_cast<size_t>(i)]));
    ASSERT_LE(q.QueuedItems(), 2 * q.LiveCount() + EventQueue::kDropThreshold);
  }
  std::stable_sort(survivors.begin(), survivors.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<int> expected;
  for (const auto& [delay, i] : survivors) {
    expected.push_back(i);
  }
  EXPECT_EQ(q.RunAll(), survivors.size());
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  int ran = 0;
  auto id = q.ScheduleAfter(10, [&] { ++ran; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // double-cancel
  q.RunAll();
  EXPECT_EQ(ran, 0);
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue q;
  std::vector<SimTime> times;
  q.ScheduleAfter(10, [&] {
    times.push_back(q.now());
    q.ScheduleAfter(5, [&] { times.push_back(q.now()); });
  });
  q.RunAll();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(EventQueueTest, ScheduleAtPastClampsToNow) {
  EventQueue q;
  q.ScheduleAfter(50, [] {});
  q.RunAll();
  SimTime fired = 0;
  q.ScheduleAt(10, [&] { fired = q.now(); });  // in the past
  q.RunAll();
  EXPECT_EQ(fired, 50u);
}

TEST(EventQueueTest, StepExecutesOne) {
  EventQueue q;
  int ran = 0;
  q.ScheduleAfter(1, [&] { ++ran; });
  q.ScheduleAfter(2, [&] { ++ran; });
  EXPECT_TRUE(q.Step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(q.Step());
  EXPECT_FALSE(q.Step());
}

TEST(EventQueueTest, CancelAfterRunReportsFalseAndKeepsPendingExact) {
  // Regression: cancelling an id that already executed used to report true
  // and permanently skew the pending count; it is a clean no-op.
  EventQueue q;
  auto ran_id = q.ScheduleAfter(1, [] {});
  auto live_id = q.ScheduleAfter(2, [] {});
  EXPECT_TRUE(q.Step());
  EXPECT_FALSE(q.Cancel(ran_id));
  EXPECT_EQ(q.LiveCount(), 1u);
  EXPECT_TRUE(q.Cancel(live_id));
  EXPECT_EQ(q.LiveCount(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.Step());
}

TEST(EventQueueTest, CancellationHeavyWorkload) {
  // The fabric + keep-alive pattern: tens of thousands of schedules with a
  // large fraction cancelled before they fire, interleaved with execution.
  // With the old O(n) cancelled-list scan this test was quadratic; it now
  // finishes instantly, and the bookkeeping stays exact throughout.
  EventQueue q;
  constexpr int kBatches = 100;
  constexpr int kPerBatch = 200;
  uint64_t executed = 0;
  uint64_t cancelled = 0;
  std::vector<EventQueue::EventId> ids;
  for (int batch = 0; batch < kBatches; ++batch) {
    ids.clear();
    for (int i = 0; i < kPerBatch; ++i) {
      ids.push_back(q.ScheduleAfter(static_cast<SimTime>(1 + i % 7), [&] { ++executed; }));
    }
    // Cancel every other event, newest first (worst case for a list scan).
    for (int i = kPerBatch - 1; i >= 0; i -= 2) {
      ASSERT_TRUE(q.Cancel(ids[static_cast<size_t>(i)]));
      ++cancelled;
    }
    ASSERT_EQ(q.LiveCount(), static_cast<size_t>(kPerBatch / 2));
    // Double-cancel is rejected without disturbing the count.
    ASSERT_FALSE(q.Cancel(ids[1]));
    ASSERT_EQ(q.LiveCount(), static_cast<size_t>(kPerBatch / 2));
    q.RunAll();
    ASSERT_EQ(q.LiveCount(), 0u);
  }
  EXPECT_EQ(executed, static_cast<uint64_t>(kBatches) * kPerBatch / 2);
  EXPECT_EQ(cancelled, static_cast<uint64_t>(kBatches) * kPerBatch / 2);
}

TEST(EventQueueTest, CancellationKeepsFifoAmongEqualTimes) {
  // Cancelling interleaved events must not disturb the FIFO tie-break of
  // the survivors.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventQueue::EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(q.ScheduleAfter(5, [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 10; i += 2) {
    ASSERT_TRUE(q.Cancel(ids[static_cast<size_t>(i)]));
  }
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(EventQueueTest, LiveCountTreatsCancelledOnlyQueueAsQuiescent) {
  // Regression: quiescence checks must not be fooled by cancelled husks that
  // still sit in the heap awaiting their lazy pop.
  EventQueue q;
  std::vector<EventQueue::EventId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(q.ScheduleAfter(10 * (i + 1), [] {}));
  }
  EXPECT_EQ(q.LiveCount(), 4u);
  EXPECT_FALSE(q.empty());
  for (EventQueue::EventId id : ids) {
    ASSERT_TRUE(q.Cancel(id));
  }
  // Nothing was popped, so the husks are still enqueued — yet the queue must
  // report quiescent.
  EXPECT_EQ(q.LiveCount(), 0u);
  EXPECT_TRUE(q.empty());

  // A fresh event revives it, and running drains it back to quiescent.
  q.ScheduleAfter(5, [] {});
  EXPECT_EQ(q.LiveCount(), 1u);
  q.RunAll();
  EXPECT_EQ(q.LiveCount(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, KeepAlivePatternRepeatingTimer) {
  // The pattern Pastry's keep-alive uses: a self-rescheduling timer.
  EventQueue q;
  int rounds = 0;
  std::function<void()> tick = [&] {
    ++rounds;
    if (rounds < 5) {
      q.ScheduleAfter(100, tick);
    }
  };
  q.ScheduleAfter(100, tick);
  q.RunUntil(1000);
  EXPECT_EQ(rounds, 5);
  EXPECT_EQ(q.now(), 1000u);
}

// The set-based queue EventQueue replaced, kept as the reference model for
// the differential test below: a heap of {when, sequence, id, callback}
// with sequential ids, and live/cancelled id sets.
class ReferenceQueue {
 public:
  using Callback = std::function<void()>;
  using EventId = uint64_t;

  SimTime now() const { return now_; }
  EventId ScheduleAfter(SimTime delay, Callback fn) { return ScheduleAt(now_ + delay, fn); }
  EventId ScheduleAt(SimTime when, Callback fn) {
    EventId id = next_id_++;
    heap_.push(Event{std::max(when, now_), next_sequence_++, id, std::move(fn)});
    live_.insert(id);
    return id;
  }
  bool Cancel(EventId id) {
    if (live_.erase(id) == 0) {
      return false;
    }
    cancelled_.insert(id);
    return true;
  }
  size_t RunUntil(SimTime until) {
    size_t executed = 0;
    for (;;) {
      while (!heap_.empty() && cancelled_.erase(heap_.top().id) != 0) {
        heap_.pop();
      }
      if (heap_.empty() || heap_.top().when > until) {
        break;
      }
      PopAndRun();
      ++executed;
    }
    now_ = std::max(now_, until);
    return executed;
  }
  bool Step() { return PopAndRun(); }
  size_t LiveCount() const { return live_.size(); }
  // The first id this queue has not issued yet.
  EventId unissued() const { return next_id_; }

 private:
  struct Event {
    SimTime when;
    uint64_t sequence;
    EventId id;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.sequence > b.sequence;
    }
  };
  bool PopAndRun() {
    while (!heap_.empty()) {
      Event event = heap_.top();
      heap_.pop();
      if (cancelled_.erase(event.id) != 0) {
        continue;
      }
      live_.erase(event.id);
      now_ = event.when;
      event.fn();
      return true;
    }
    return false;
  }

  SimTime now_ = 0;
  uint64_t next_sequence_ = 0;
  EventId next_id_ = 1;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::unordered_set<EventId> live_;
  std::unordered_set<EventId> cancelled_;
};

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Drives one queue through a scripted run. Events are tagged by issue
// order, and what an event does when it runs (schedule a child, cancel an
// issued id) is a pure function of (seed, tag), so two queues fed the same
// top-level ops see the same nested ones as long as they agree.
template <typename Queue>
class Driver {
 public:
  explicit Driver(uint64_t seed) : seed_(seed) {}

  Queue q;
  std::vector<uint64_t> ids;  // by tag
  std::vector<int64_t> log;   // tags run, nested Cancel results, run times

  void ScheduleAfter(SimTime delay) { Issue(q.ScheduleAfter(delay, Callback(ids.size()))); }
  void ScheduleAt(SimTime when) { Issue(q.ScheduleAt(when, Callback(ids.size()))); }

 private:
  std::function<void()> Callback(size_t tag) {
    return [this, tag] {
      log.push_back(static_cast<int64_t>(tag));
      log.push_back(static_cast<int64_t>(q.now()));
      uint64_t r = SplitMix(seed_ ^ (tag * 0x100000001b3ull));
      if (r % 4 == 0) {
        ScheduleAfter((r >> 8) % 6);
      }
      if ((r >> 16) % 5 == 0) {
        bool cancelled = q.Cancel(ids[(r >> 24) % ids.size()]);
        log.push_back(cancelled ? -1 : -2);
      }
    };
  }
  void Issue(uint64_t id) {
    ASSERT_NE(id, 0u);  // 0 means "no timer" to keepalive.h and async_op.h
    ids.push_back(id);
  }

  uint64_t seed_;
};

TEST(EventQueueTest, MatchesReferenceQueueOnRandomOps) {
  constexpr SimTime kDelays[] = {0, 1, 1, 2, 3, 5, 5, 8, 40};
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Driver<ReferenceQueue> ref(seed);
    Driver<EventQueue> sut(seed);
    std::mt19937_64 rng(seed);
    size_t checked = 0;
    for (int op = 0; op < 20'000; ++op) {
      const uint64_t r = rng();
      const uint64_t pick = r >> 16;
      switch (r % 16) {
        case 0:
        case 1:
        case 2:
        case 3:
        case 4: {
          SimTime delay = kDelays[pick % std::size(kDelays)];
          ref.ScheduleAfter(delay);
          sut.ScheduleAfter(delay);
          break;
        }
        case 5: {
          // Often in the past, which clamps to now().
          SimTime when = ref.q.now() + (pick % 7) - std::min<SimTime>(ref.q.now(), 3);
          ref.ScheduleAt(when);
          sut.ScheduleAt(when);
          break;
        }
        case 6:
        case 7:
        case 8: {
          // Any issued id: live, already run, or already cancelled.
          if (ref.ids.empty()) {
            break;
          }
          size_t tag = pick % ref.ids.size();
          ASSERT_EQ(ref.q.Cancel(ref.ids[tag]), sut.q.Cancel(sut.ids[tag])) << "op " << op;
          break;
        }
        case 9: {
          // Ids never issued, and 0.
          ASSERT_FALSE(ref.q.Cancel(ref.q.unissued() + pick % 5));
          ASSERT_FALSE(sut.q.Cancel(((pick | 0x80000000ull) << 32) | (pick % 64)));
          ASSERT_FALSE(sut.q.Cancel(0xffffffffull));
          ASSERT_FALSE(ref.q.Cancel(0));
          ASSERT_FALSE(sut.q.Cancel(0));
          break;
        }
        case 10:
        case 11:
        case 12:
        case 13:
          ASSERT_EQ(ref.q.Step(), sut.q.Step()) << "op " << op;
          break;
        default: {
          SimTime until = ref.q.now() + kDelays[pick % std::size(kDelays)];
          ASSERT_EQ(ref.q.RunUntil(until), sut.q.RunUntil(until)) << "op " << op;
          break;
        }
      }
      ASSERT_EQ(ref.ids.size(), sut.ids.size()) << "op " << op;
      ASSERT_EQ(ref.log.size(), sut.log.size()) << "op " << op;
      for (; checked < ref.log.size(); ++checked) {
        ASSERT_EQ(ref.log[checked], sut.log[checked]) << "op " << op << " entry " << checked;
      }
      ASSERT_EQ(ref.q.LiveCount(), sut.q.LiveCount()) << "op " << op;
      ASSERT_EQ(ref.q.now(), sut.q.now()) << "op " << op;
      ASSERT_EQ(sut.q.empty(), sut.q.LiveCount() == 0);
      ASSERT_LE(sut.q.QueuedItems(), 2 * sut.q.LiveCount() + EventQueue::kDropThreshold);
    }
  }
}

TEST(EventQueueTest, StaleIdCannotCancelTheEventThatReusedItsSlot) {
  EventQueue q;
  int ran = 0;
  auto cancelled = q.ScheduleAfter(5, [&] { ran += 1; });
  ASSERT_TRUE(q.Cancel(cancelled));
  auto reused = q.ScheduleAfter(5, [&] { ran += 10; });
  EXPECT_EQ(reused & 0xffffffffu, cancelled & 0xffffffffu);  // same slot
  EXPECT_FALSE(q.Cancel(cancelled));
  EXPECT_EQ(q.LiveCount(), 1u);
  q.RunAll();
  EXPECT_EQ(ran, 10);

  // The same holds for an id whose event ran.
  auto next = q.ScheduleAfter(5, [&] { ran += 100; });
  EXPECT_FALSE(q.Cancel(reused));
  EXPECT_TRUE(q.Cancel(next));
  q.RunAll();
  EXPECT_EQ(ran, 10);
  EXPECT_NE(cancelled, 0u);
  EXPECT_NE(reused, 0u);
  EXPECT_NE(next, 0u);
}

}  // namespace
}  // namespace past
