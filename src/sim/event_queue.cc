#include "src/sim/event_queue.h"

#include <algorithm>

namespace past {

EventQueue::EventId EventQueue::ScheduleAfter(SimTime delay, Callback fn) {
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventQueue::EventId EventQueue::ScheduleAt(SimTime when, Callback fn) {
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  ++live_count_;
  heap_.push(Item{std::max(when, now_), next_sequence_++, slot, s.generation});
  return (static_cast<EventId>(s.generation) << 32) | slot;
}

void EventQueue::Release(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.live = false;
  if (++s.generation == 0) {
    s.generation = 1;  // ids stay nonzero across wraparound
  }
  free_slots_.push_back(slot);
  --live_count_;
}

bool EventQueue::Cancel(EventId id) {
  // Only ids currently live (scheduled, not yet run) are cancellable; an id
  // that already ran, was cancelled, or was never issued reports false, even
  // when its slot now holds a newer event.
  uint64_t slot = id & 0xffffffffu;
  if (slot >= slots_.size()) {
    return false;
  }
  const Slot& s = slots_[slot];
  if (!s.live || s.generation != static_cast<uint32_t>(id >> 32)) {
    return false;
  }
  Release(static_cast<uint32_t>(slot));
  return true;
}

bool EventQueue::PopAndRun() {
  while (!heap_.empty()) {
    Item item = heap_.top();
    heap_.pop();
    Slot& s = slots_[item.slot];
    if (!s.live || s.generation != item.generation) {
      continue;  // cancelled
    }
    now_ = item.when;
    // The callback may schedule into (and grow) the slot table, so it runs
    // from a local, with its slot already released.
    Callback fn = std::move(s.fn);
    Release(item.slot);
    fn();
    return true;
  }
  return false;
}

size_t EventQueue::RunUntil(SimTime until) {
  size_t executed = 0;
  while (!heap_.empty() && heap_.top().when <= until) {
    if (PopAndRun()) {
      ++executed;
    }
  }
  now_ = std::max(now_, until);
  return executed;
}

size_t EventQueue::RunAll() {
  size_t executed = 0;
  while (PopAndRun()) {
    ++executed;
  }
  return executed;
}

bool EventQueue::Step() { return PopAndRun(); }

}  // namespace past
