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
  Item item{std::max(when, now_), next_sequence_++, slot, s.generation};
  if (item.when == now_) {
    // Reclaim the consumed prefix rather than reallocate, once it is at
    // least half the lane: each consumed item is moved past at most once.
    if (lane_.size() == lane_.capacity() && lane_head_ * 2 >= lane_.size()) {
      lane_.erase(lane_.begin(), lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
      lane_head_ = 0;
    }
    lane_.push_back(item);
  } else {
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end(), Later());
  }
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
  if (QueuedItems() > 2 * live_count_ + kDropThreshold) {
    DropCancelled();
  }
}

void EventQueue::DropCancelled() {
  auto cancelled = [this](const Item& item) { return Cancelled(item); };
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), cancelled), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later());
  // remove_if keeps the survivors in order, so the lane stays FIFO.
  lane_.erase(std::remove_if(lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_),
                             lane_.end(), cancelled),
              lane_.end());
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

void EventQueue::PopHeap() {
  std::pop_heap(heap_.begin(), heap_.end(), Later());
  heap_.pop_back();
}

void EventQueue::PopLane() {
  if (++lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  }
}

bool EventQueue::RunNext(SimTime until) {
  // Cancelled items at either front are discarded first, so a cancelled
  // item due by `until` cannot let a later live event run.
  while (lane_head_ < lane_.size() && Cancelled(lane_[lane_head_])) {
    PopLane();
  }
  while (!heap_.empty() && Cancelled(heap_.front())) {
    PopHeap();
  }
  bool from_lane = lane_head_ < lane_.size();
  if (!from_lane && heap_.empty()) {
    return false;
  }
  if (from_lane && !heap_.empty() && Later()(lane_[lane_head_], heap_.front())) {
    from_lane = false;
  }
  Item item = from_lane ? lane_[lane_head_] : heap_.front();
  if (item.when > until) {
    return false;
  }
  if (from_lane) {
    PopLane();
  } else {
    PopHeap();
  }
  now_ = item.when;
  // The callback may schedule into (and grow) the slot table, so it runs
  // from a local, with its slot already released.
  Callback fn = std::move(slots_[item.slot].fn);
  Release(item.slot);
  fn();
  return true;
}

size_t EventQueue::RunUntil(SimTime until) {
  size_t executed = 0;
  while (RunNext(until)) {
    ++executed;
  }
  now_ = std::max(now_, until);
  return executed;
}

size_t EventQueue::RunAll() {
  size_t executed = 0;
  while (RunNext()) {
    ++executed;
  }
  return executed;
}

bool EventQueue::Step() { return RunNext(); }

}  // namespace past
