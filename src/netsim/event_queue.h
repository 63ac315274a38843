// The discrete-event core: a priority queue of (time, sequence, callback).
// Sequence numbers break ties so same-instant events fire in schedule order,
// which keeps runs bit-for-bit reproducible.
//
// Storage is a binary min-heap ordered by (when, seq) with *lazy
// cancellation*: cancel(id) only clears `id`'s liveness flag, and the
// heap entry is discarded (tombstoned) when it reaches the top. Event ids
// are assigned sequentially, so liveness is a dense bit-vector indexed by
// (id - base_) rather than a hash set — cancel and the per-pop liveness
// check are array lookups. The vector is compacted (and base_ advanced)
// whenever the heap drains. Invariants:
//   - `alive_` flags exactly the ids that are scheduled and neither executed
//     nor cancelled; pending()/empty() reflect live events only.
//   - A cancelled event's callback is destroyed when its tombstone is popped
//     or when the queue drains/destructs — not at cancel() time — so captures
//     may outlive cancel() by simulated time. Captures must not rely on
//     destructor timing.
//   - Event ids are never reused, so a stale id can never cancel a newer
//     event.
// This replaces the previous std::map<Key, Callback> + std::map<EventId, Key>
// pair: push/pop are O(log n) with no rebalancing, no per-node allocation,
// and (with UniqueCallback) no per-event std::function heap allocation.
#pragma once

#include <cstdint>
#include <vector>

#include "netsim/callback.h"
#include "netsim/time.h"

namespace ednsm::obs {
class Tracer;
}  // namespace ednsm::obs

namespace ednsm::netsim {

class EventQueue {
 public:
  using EventId = std::uint64_t;
  using Callback = UniqueCallback;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  // Schedule `cb` to run `delay` from now. A negative delay (possible only
  // through arithmetic bugs upstream) is clamped to zero so release builds
  // never travel back in time; debug builds used to assert here, but the
  // clamp is now the contract in every build mode.
  EventId schedule(SimDuration delay, Callback cb);

  // Schedule at an absolute time; `when` earlier than now() is clamped to
  // now() (see schedule()).
  EventId schedule_at(SimTime when, Callback cb);

  // Cancel a pending event; returns false if it already ran or was cancelled.
  bool cancel(EventId id);

  // Run events until the queue drains. Returns the number of events executed.
  std::size_t run_until_idle();

  // Run events with time <= deadline; leaves later events pending. Advances
  // now() to exactly `deadline` (events never execute past it, and time
  // reaches the deadline even when the queue drains early).
  // ednsm-lint: allow(hygiene-dead-function) — the netsim, transport and client tests step the
  // queue to a fixed time with it (e.g. EventQueue.RunUntilStopsAtDeadline,
  // EventQueueStress.MatchesMapModelOracle).
  std::size_t run_until(SimTime deadline);

  [[nodiscard]] bool empty() const noexcept { return live_count_ == 0; }
  // ednsm-lint: allow(hygiene-dead-function) — EventQueue.CancelledEventsLeavePendingCount and
  // EventQueueStress.MatchesMapModelOracle count live events after cancellations.
  [[nodiscard]] std::size_t pending() const noexcept { return live_count_; }

  // Events executed over the queue's whole lifetime (run_until* return only
  // per-call counts) — the "netsim.events_executed" metric.
  [[nodiscard]] std::uint64_t executed_total() const noexcept { return executed_total_; }

  // Optional tracer, owned by the enclosing world. The queue is the clock
  // every subsystem already holds a reference to, so it doubles as the trace
  // attachment point: anything with queue access can emit via the OBS_*
  // macros. Null (the default) means "tracing impossible", which the macros
  // check before the enabled flag.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  struct Entry {
    SimTime when;
    EventId id;
    Callback cb;
  };

  // std::push_heap/pop_heap build a max-heap, so "greater" puts the earliest
  // (when, id) at the front. A functor (not a function pointer) so the
  // comparison inlines into the heap sift loops.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      return a.when != b.when ? a.when > b.when : a.id > b.id;
    }
  };

  // Drop tombstoned entries off the top so heap_.front() (when non-empty) is
  // the next live event; compacts the liveness vector when the heap drains.
  void prune_top();

  // Pop the front entry into `out` (front must be live).
  void pop_front(Entry& out);

  [[nodiscard]] bool is_live(EventId id) const noexcept {
    return id >= base_ && id - base_ < alive_.size() &&
           alive_[static_cast<std::size_t>(id - base_)] != 0;
  }

  SimTime now_{0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_total_ = 0;
  obs::Tracer* tracer_ = nullptr;
  std::vector<Entry> heap_;
  // Liveness flags for ids [base_, next_seq_); see the header comment.
  std::uint64_t base_ = 0;
  std::vector<std::uint8_t> alive_;
  std::size_t live_count_ = 0;
};

}  // namespace ednsm::netsim
