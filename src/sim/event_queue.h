// Discrete-event core of the scale-out engine: a binary heap of events
// keyed on virtual nanoseconds, dispatched strictly in (time, submission)
// order on one OS thread.
//
// This replaces "concurrency = OS threads" with "concurrency = pending
// events": a simulated tenant is an EventHandler whose next wakeup sits in
// this heap, costing tens of bytes instead of a thread stack. The loop
// pops the earliest event, advances the virtual clock to it (never
// backwards — monotonicity is asserted), and steps the handler; the
// handler issues client ops under a common::VirtualScope, learns their
// virtual latency immediately (providers *compute* time, nothing sleeps),
// and schedules its own next wakeup. The shape is vitastor's
// event-loop-per-OSD turned inside out: one loop, many cheap actors.
//
// Ordering: events with equal timestamps dispatch in schedule() order
// (a monotone sequence number breaks ties), so runs are reproducible.
//
// Cancellation: every scheduled event owns a cancel flag. cancel(id)
// marks it and the dispatcher skips marked events. A handler that is
// already running is never interrupted: its step runs to completion.
//
// Storage: events live in a slab of entries recycled through a free list,
// so a steady-state schedule/dispatch cycle allocates nothing. An EventId
// names its slot plus the event's sequence number, so cancel() is O(1) and
// rejects an id whose slot has since been reused.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <vector>

#include "common/clock.h"

namespace hyrd::sim {

class EventQueue;

/// Something that can be woken at a virtual instant. Handlers are borrowed,
/// never owned: the caller keeps them alive until their events have fired
/// or been cancelled.
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void on_event(EventQueue& queue, common::SimDuration now) = 0;
};

/// Identifies one scheduled (not yet dispatched) event: its slab slot + 1
/// in the low 32 bits, the low 32 bits of its sequence number above. Stale
/// ids (dispatched, cancelled and reaped, or never issued) are rejected.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class EventQueue {
 public:
  /// Current virtual time: the timestamp of the latest dispatched event.
  [[nodiscard]] common::SimDuration now() const { return now_; }

  /// Scheduled events not yet reaped: cancelled events count until the
  /// dispatcher skips them, and a running handler's event counts until
  /// its handler returns.
  [[nodiscard]] std::size_t pending() const { return live_; }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }

  /// Schedules `handler` at virtual time `when`. Times in the past are
  /// clamped to now(): virtual time never runs backwards.
  EventId schedule_at(common::SimDuration when, EventHandler* handler);

  /// Schedules `handler` `delay` from now (negative delays clamp to 0).
  EventId schedule_in(common::SimDuration delay, EventHandler* handler);

  /// Cancels a pending event. Returns false when the id is unknown,
  /// already dispatched, or already cancelled. The handler is not invoked.
  bool cancel(EventId id);

  /// Dispatches the earliest pending event, skipping cancelled ones.
  /// Returns false when nothing was dispatched (queue empty or all
  /// remaining events cancelled).
  bool step();

  /// Runs until the queue drains or `max_events` were dispatched.
  /// Returns the number of events dispatched.
  std::uint64_t run(std::uint64_t max_events =
                        std::numeric_limits<std::uint64_t>::max());

 private:
  struct HeapItem {
    common::SimDuration when;
    std::uint64_t seq;  // monotone: smaller seq == scheduled earlier
    std::uint32_t slot;
    friend bool operator>(const HeapItem& a, const HeapItem& b) {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  struct Entry {
    EventHandler* handler = nullptr;  // null = free slot
    std::uint64_t seq = 0;
    bool cancelled = false;
  };

  void release(std::uint32_t slot);

  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap_;
  // Addressed by slot index only, never held across on_event(), so a
  // handler may grow the slab while it runs; a deque grows without moving
  // the live entries.
  std::deque<Entry> slab_;
  std::vector<std::uint32_t> free_;  // reusable slots, most recent last
  std::size_t live_ = 0;
  common::SimDuration now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
};

}  // namespace hyrd::sim
