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
// Storage: a heap item is the whole event (time, sequence, handler), so a
// steady-state schedule/dispatch cycle allocates nothing once the heap's
// vector has grown. A scheduled event always fires; nothing cancels it.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "common/clock.h"

namespace hyrd::sim {

class EventQueue;

/// Something that can be woken at a virtual instant. Handlers are borrowed,
/// never owned: the caller keeps them alive until their events have fired.
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual void on_event(EventQueue& queue, common::SimDuration now) = 0;
};

class EventQueue {
 public:
  /// Current virtual time: the timestamp of the latest dispatched event.
  [[nodiscard]] common::SimDuration now() const { return now_; }

  /// Scheduled events not yet dispatched. A running handler's own event
  /// is already dispatched and does not count.
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }

  /// Schedules `handler` at virtual time `when`. Times in the past are
  /// clamped to now(): virtual time never runs backwards.
  void schedule_at(common::SimDuration when, EventHandler* handler);

  /// Dispatches the earliest pending event. Returns false when the queue
  /// is empty.
  bool step();

  /// Runs until the queue drains or `max_events` were dispatched.
  /// Returns the number of events dispatched.
  std::uint64_t run(std::uint64_t max_events =
                        std::numeric_limits<std::uint64_t>::max());

 private:
  struct HeapItem {
    common::SimDuration when;
    std::uint64_t seq;  // monotone: smaller seq == scheduled earlier
    EventHandler* handler;
    friend bool operator>(const HeapItem& a, const HeapItem& b) {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap_;
  common::SimDuration now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t dispatched_ = 0;
};

}  // namespace hyrd::sim
