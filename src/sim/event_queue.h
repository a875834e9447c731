// Discrete-event simulation core.
//
// Storage and caching experiments drive Pastry routes synchronously (exactly
// what the paper's single-JVM emulation reduces to), but the failure
// machinery — keep-alive exchange, the unresponsiveness period T, leaf-set
// repair ordering — is inherently timed. The EventQueue provides a virtual
// clock and ordered timer callbacks for those paths.
//
// Layout: the heap orders plain {when, sequence, slot, generation} items;
// the callbacks live in a slot table whose slots are reused. An EventId
// names a slot and the generation it was issued under, so Cancel is an
// array load and a compare, and a stale id (its event ran or was cancelled
// and the slot now holds another event) cancels nothing. Cancelled items
// stay in the heap until their lazy pop, which skips them because their
// generation no longer matches. Neither scheduling, cancelling nor running
// allocates once the heap and the slot table have grown to the run's peak,
// apart from what a callback itself needs beyond std::function's small
// buffer.
#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace past {

using SimTime = uint64_t;  // milliseconds of virtual time

class EventQueue {
 public:
  using Callback = std::function<void()>;
  // Never 0: callers use 0 to mean "no timer".
  using EventId = uint64_t;

  SimTime now() const { return now_; }

  // Schedules `fn` to run at now() + delay. Returns an id usable with Cancel.
  EventId ScheduleAfter(SimTime delay, Callback fn);
  EventId ScheduleAt(SimTime when, Callback fn);

  // Cancels a pending event in O(1). Returns false if it already ran, was
  // cancelled, or was never issued.
  bool Cancel(EventId id);

  // Runs events until the queue is empty or `until` is reached (events
  // scheduled exactly at `until` are executed). Returns events executed.
  size_t RunUntil(SimTime until);

  // Runs everything currently scheduled (including events scheduled by
  // earlier events). Use with care with repeating timers.
  size_t RunAll();

  // Executes just the next pending event, if any.
  bool Step();

  // Events that are scheduled and will actually run (cancelled entries may
  // still sit in the heap awaiting their lazy pop, but they are not live).
  // This is the quiescence signal: a queue whose only contents are cancelled
  // husks reports 0 and is quiescent.
  size_t LiveCount() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

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
    // runs or is cancelled, which retires every id and heap item naming it.
    uint32_t generation = 1;
    bool live = false;
  };

  bool PopAndRun();
  // Retires the slot's current event and returns the slot to the free list.
  void Release(uint32_t slot);

  SimTime now_ = 0;
  uint64_t next_sequence_ = 0;
  size_t live_count_ = 0;
  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace past

#endif  // SRC_SIM_EVENT_QUEUE_H_
