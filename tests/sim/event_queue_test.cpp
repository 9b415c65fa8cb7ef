// Discrete-event core contracts: dispatch order (time, then submission),
// cancellation (from outside and from inside a running handler), and
// virtual-time monotonicity.
#include <gtest/gtest.h>

#include <vector>

#include "common/clock.h"
#include "sim/event_queue.h"

namespace hyrd::sim {
namespace {

/// Appends its tag to a shared trace on every dispatch.
class Recorder final : public EventHandler {
 public:
  Recorder(int tag, std::vector<int>& trace) : tag_(tag), trace_(trace) {}
  void on_event(EventQueue&, common::SimDuration) override {
    trace_.push_back(tag_);
  }

 private:
  int tag_;
  std::vector<int>& trace_;
};

TEST(EventQueue, DispatchesInTimeOrder) {
  std::vector<int> trace;
  Recorder a(1, trace), b(2, trace), c(3, trace);
  EventQueue q;
  q.schedule_at(300, &c);
  q.schedule_at(100, &a);
  q.schedule_at(200, &b);
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 300);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.dispatched(), 3u);
}

TEST(EventQueue, EqualTimestampsDispatchInScheduleOrder) {
  // The stability contract the determinism test leans on: ties broken by
  // the monotone event id, i.e. submission order — never heap order.
  std::vector<int> trace;
  std::vector<Recorder> handlers;
  handlers.reserve(8);
  EventQueue q;
  for (int i = 0; i < 8; ++i) {
    handlers.emplace_back(i, trace);
    q.schedule_at(500, &handlers[i]);
  }
  q.run();
  EXPECT_EQ(trace, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueue, CancelledEventIsSkipped) {
  std::vector<int> trace;
  Recorder a(1, trace), b(2, trace);
  EventQueue q;
  const EventId ida = q.schedule_at(100, &a);
  q.schedule_at(200, &b);
  EXPECT_TRUE(q.cancel(ida));
  EXPECT_EQ(q.run(), 1u);  // only b dispatched
  EXPECT_EQ(trace, (std::vector<int>{2}));
  EXPECT_EQ(q.now(), 200);  // cancelled events don't advance the clock
}

TEST(EventQueue, CancelIsIdempotentAndRejectsUnknownOrDispatched) {
  std::vector<int> trace;
  Recorder a(1, trace);
  EventQueue q;
  const EventId id = q.schedule_at(50, &a);
  EXPECT_FALSE(q.cancel(kInvalidEvent));
  EXPECT_FALSE(q.cancel(id + 999));  // never issued
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // second cancel is a no-op
  q.run();
  EXPECT_TRUE(trace.empty());

  const EventId id2 = q.schedule_at(60, &a);
  q.run();
  EXPECT_FALSE(q.cancel(id2));  // already dispatched
}

TEST(EventQueue, PastSchedulesClampToNowAndTimeIsMonotone) {
  struct Prober final : EventHandler {
    std::vector<common::SimDuration> seen;
    void on_event(EventQueue& q, common::SimDuration now) override {
      seen.push_back(now);
      if (seen.size() == 1) {
        q.schedule_at(now - 500, this);  // the past: must clamp to now
        q.schedule_in(-10, this);        // negative delay: same
      }
    }
  } p;
  EventQueue q;
  q.schedule_at(1000, &p);
  q.run();
  ASSERT_EQ(p.seen.size(), 3u);
  EXPECT_EQ(p.seen[0], 1000);
  EXPECT_EQ(p.seen[1], 1000);  // clamped, not 500
  EXPECT_EQ(p.seen[2], 1000);
  EXPECT_EQ(q.now(), 1000);
}

TEST(EventQueue, SelfReschedulingChainAdvancesVirtualTime) {
  // The tenant lifecycle shape: each dispatch schedules the next.
  struct Chain final : EventHandler {
    int steps = 0;
    void on_event(EventQueue& q, common::SimDuration now) override {
      if (++steps < 5) q.schedule_at(now + common::kMillisecond, this);
    }
  } chain;
  EventQueue q;
  q.schedule_at(0, &chain);
  EXPECT_EQ(q.run(), 5u);
  EXPECT_EQ(chain.steps, 5);
  EXPECT_EQ(q.now(), 4 * common::kMillisecond);
}

TEST(EventQueue, RunHonorsMaxEvents) {
  std::vector<int> trace;
  Recorder a(1, trace), b(2, trace), c(3, trace);
  EventQueue q;
  q.schedule_at(1, &a);
  q.schedule_at(2, &b);
  q.schedule_at(3, &c);
  EXPECT_EQ(q.run(2), 2u);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run(), 1u);
}

TEST(EventQueue, HandlerCancelsAnotherPendingEvent) {
  // A running handler may cancel another pending event: the victim is
  // skipped, never dispatched.
  struct Canceller final : EventHandler {
    EventId other = kInvalidEvent;
    bool cancelled_other = false;
    void on_event(EventQueue& q, common::SimDuration) override {
      if (other != kInvalidEvent) cancelled_other = q.cancel(other);
    }
  } p;
  std::vector<int> trace;
  Recorder victim(9, trace);
  EventQueue q;
  q.schedule_at(10, &p);
  p.other = q.schedule_at(20, &victim);
  EXPECT_EQ(q.run(), 1u);
  EXPECT_TRUE(p.cancelled_other);
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, StaleIdOfReusedSlotIsRejected) {
  // Dispatched and cancelled events hand their slab slot back; an id that
  // named the slot's previous event must not reach the new one.
  std::vector<int> trace;
  Recorder a(1, trace), b(2, trace), c(3, trace);
  EventQueue q;
  const EventId first = q.schedule_at(10, &a);
  q.run();
  const EventId second = q.schedule_at(20, &b);
  ASSERT_EQ(first & 0xffffffffu, second & 0xffffffffu);  // same slot reused
  EXPECT_NE(first, second);
  EXPECT_FALSE(q.cancel(first));  // stale: must not cancel b
  EXPECT_EQ(q.run(), 1u);
  EXPECT_EQ(trace, (std::vector<int>{1, 2}));

  // Cancelled and reaped, then the slot reused: the cancelled id is dead.
  const EventId cancelled = q.schedule_at(30, &a);
  EXPECT_TRUE(q.cancel(cancelled));
  EXPECT_EQ(q.run(), 0u);  // reaps the cancelled event
  const EventId reused = q.schedule_at(40, &c);
  ASSERT_EQ(cancelled & 0xffffffffu, reused & 0xffffffffu);
  EXPECT_FALSE(q.cancel(cancelled));
  EXPECT_EQ(q.run(), 1u);
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SelfCancelSurvivesSlabGrowthInsideHandler) {
  // A handler that grows the slab by 10^4 entries and then cancels its
  // own (still running) event must hit *its* entry: the cancel succeeds,
  // the running step completes, and every child still dispatches (under
  // ASan a relocated slab would be a use-after-free here).
  struct Burst final : EventHandler {
    EventId self = kInvalidEvent;
    bool self_cancelled = false;
    bool finished = false;
    int children = 0;
    void on_event(EventQueue& q, common::SimDuration now) override {
      if (self == kInvalidEvent) {  // a child: just count it
        ++children;
        return;
      }
      const EventId me = self;
      self = kInvalidEvent;
      for (int i = 0; i < 10'000; ++i) q.schedule_at(now + 1 + i % 7, this);
      self_cancelled = q.cancel(me);
      EXPECT_FALSE(q.cancel(me));  // already cancelled
      finished = true;
    }
  } burst;
  EventQueue q;
  burst.self = q.schedule_at(5, &burst);
  EXPECT_EQ(q.run(), 10'001u);
  EXPECT_TRUE(burst.self_cancelled);
  EXPECT_TRUE(burst.finished);
  EXPECT_EQ(burst.children, 10'000);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, PendingCountsAcrossCancels) {
  // pending() counts scheduled events not yet reaped: a cancelled event
  // counts until the dispatcher skips it, a running one until it returns.
  struct Probe final : EventHandler {
    std::vector<std::size_t> seen;
    void on_event(EventQueue& q, common::SimDuration) override {
      seen.push_back(q.pending());
    }
  } probe;
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(q.schedule_at(10 * (i + 1), &probe));
  EXPECT_EQ(q.pending(), 6u);
  EXPECT_TRUE(q.cancel(ids[0]));
  EXPECT_TRUE(q.cancel(ids[3]));
  EXPECT_FALSE(q.cancel(ids[3]));
  EXPECT_EQ(q.pending(), 6u);  // flagged, not yet reaped
  ASSERT_TRUE(q.step());       // reaps ids[0], runs ids[1]
  EXPECT_EQ(q.pending(), 4u);
  ASSERT_TRUE(q.step());       // runs ids[2]
  EXPECT_EQ(q.pending(), 3u);
  ASSERT_TRUE(q.step());       // reaps ids[3], runs ids[4]
  EXPECT_EQ(q.pending(), 1u);
  // Each running handler saw itself counted.
  EXPECT_EQ(probe.seen, (std::vector<std::size_t>{5, 4, 2}));
  // Refill the freed slots, cancel everything, drain.
  for (int i = 0; i < 4; ++i) ids.push_back(q.schedule_at(100 + i, &probe));
  EXPECT_EQ(q.pending(), 5u);
  for (std::size_t i = 5; i < ids.size(); ++i) EXPECT_TRUE(q.cancel(ids[i]));
  EXPECT_EQ(q.run(), 0u);
  EXPECT_EQ(q.pending(), 0u);
}

}  // namespace
}  // namespace hyrd::sim
