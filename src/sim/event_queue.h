// Discrete-event simulation core.
//
// Storage and caching experiments drive Pastry routes synchronously (exactly
// what the paper's single-JVM emulation reduces to), but the failure
// machinery — keep-alive exchange, the unresponsiveness period T, leaf-set
// repair ordering — is inherently timed. The EventQueue provides a virtual
// clock and ordered timer callbacks for those paths, and it delivers every
// fabric message (src/net/sim_transport.h).
//
// Layout: plain {when, sequence, slot, generation} items order the events;
// the callbacks live in a slot table whose slots are reused. An EventId
// names a slot and the generation it was issued under, so Cancel is an
// array load and a compare, and a stale id (its event ran or was cancelled
// and the slot now holds another event) cancels nothing. Events scheduled
// ahead of now() go to a binary heap; events due at now() (zero-latency
// deliveries) go to a FIFO lane, which is sorted by (when, sequence) as it
// is filled, so running the earlier of the two fronts gives exactly a single
// heap's order. A cancelled item is discarded when it reaches a front, and
// all cancelled items are dropped at once when they outnumber live ones by
// more than kDropThreshold, so the queue holds O(live) items even while the
// clock stands still. Nothing allocates once the heap, the lane and the
// slot table have grown to the run's peak, apart from what a callback
// itself needs beyond std::function's small buffer.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace past {

using SimTime = uint64_t;  // milliseconds of virtual time

class EventQueue {
 public:
  using Callback = std::function<void()>;
  // Never 0: callers use 0 to mean "no timer".
  using EventId = uint64_t;

  // How far cancelled items may outnumber live ones before they are dropped.
  static constexpr size_t kDropThreshold = 64;

  SimTime now() const { return now_; }

  // Schedules `fn` to run at now() + delay. Returns an id usable with Cancel.
  EventId ScheduleAfter(SimTime delay, Callback fn);
  EventId ScheduleAt(SimTime when, Callback fn);

  // Cancels a pending event in O(1) amortized. Returns false if it already
  // ran, was cancelled, or was never issued.
  bool Cancel(EventId id);

  // Runs the live events due by `until` (events scheduled exactly at
  // `until` are executed, and so are the ones they schedule by then), then
  // sets the clock to `until`. Returns events executed.
  size_t RunUntil(SimTime until);

  // Runs everything currently scheduled (including events scheduled by
  // earlier events). Use with care with repeating timers.
  size_t RunAll();

  // Executes just the next pending event, if any.
  bool Step();

  // Events that are scheduled and will actually run. This is the quiescence
  // signal: a queue whose only contents are cancelled items reports 0.
  size_t LiveCount() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  // Items held in the heap and the lane, cancelled ones included. Never
  // above 2 * LiveCount() + kDropThreshold.
  size_t QueuedItems() const { return heap_.size() + lane_.size() - lane_head_; }

 private:
  struct Item {
    SimTime when;
    uint64_t sequence;  // FIFO among events with equal time
    uint32_t slot;
    uint32_t generation;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.sequence > b.sequence;
    }
  };
  struct Slot {
    Callback fn;
    // Issued with the slot's next event; bumped (skipping 0) when that event
    // runs or is cancelled, which retires every id and item naming it.
    uint32_t generation = 1;
    bool live = false;
  };

  bool Cancelled(const Item& item) const {
    const Slot& s = slots_[item.slot];
    return !s.live || s.generation != item.generation;
  }
  // Runs the next live event if it is due by `until`.
  bool RunNext(SimTime until = std::numeric_limits<SimTime>::max());
  void PopHeap();
  void PopLane();
  // Retires the slot's current event and returns the slot to the free list.
  void Release(uint32_t slot);
  void DropCancelled();

  SimTime now_ = 0;
  uint64_t next_sequence_ = 0;
  size_t live_count_ = 0;
  std::vector<Item> heap_;  // under std::push_heap / std::pop_heap with Later
  std::vector<Item> lane_;  // items before lane_head_ have been consumed
  size_t lane_head_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace past

#endif  // SRC_SIM_EVENT_QUEUE_H_
