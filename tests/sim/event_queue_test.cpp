// Discrete-event core contracts: dispatch order (time, then submission),
// growth of the heap from inside a running handler, and virtual-time
// monotonicity.
#include <gtest/gtest.h>

#include <algorithm>
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
  // the monotone sequence number, i.e. submission order — never heap order.
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

TEST(EventQueue, PastSchedulesClampToNowAndTimeIsMonotone) {
  struct Prober final : EventHandler {
    std::vector<common::SimDuration> seen;
    void on_event(EventQueue& q, common::SimDuration now) override {
      seen.push_back(now);
      if (seen.size() == 1) {
        q.schedule_at(now - 500, this);  // the past: must clamp to now
        q.schedule_at(now - 10, this);   // just behind: same
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

TEST(EventQueue, HeapGrowthInsideHandlerKeepsOrder) {
  // A handler that schedules 10^4 events while it runs regrows the heap
  // under its own dispatch: the running step completes, and every child
  // dispatches once, in (time, submission) order.
  struct Burst final : EventHandler {
    bool parent_done = false;
    std::size_t pending_after_burst = 0;
    std::vector<common::SimDuration> child_times;
    void on_event(EventQueue& q, common::SimDuration now) override {
      if (parent_done) {
        child_times.push_back(now);
        return;
      }
      for (int i = 0; i < 10'000; ++i) q.schedule_at(now + 1 + i % 7, this);
      pending_after_burst = q.pending();
      parent_done = true;
    }
  } burst;
  EventQueue q;
  q.schedule_at(5, &burst);
  EXPECT_EQ(q.run(), 10'001u);
  EXPECT_TRUE(burst.parent_done);
  EXPECT_EQ(burst.pending_after_burst, 10'000u);
  ASSERT_EQ(burst.child_times.size(), 10'000u);
  EXPECT_TRUE(
      std::is_sorted(burst.child_times.begin(), burst.child_times.end()));
  EXPECT_EQ(burst.child_times.front(), 6);
  EXPECT_EQ(burst.child_times.back(), 12);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.dispatched(), 10'001u);
}

TEST(EventQueue, PendingCountsUndispatchedEvents) {
  // pending() counts events scheduled and not yet dispatched: a running
  // handler's own event has been dispatched and is not counted.
  struct Probe final : EventHandler {
    std::vector<std::size_t> seen;
    void on_event(EventQueue& q, common::SimDuration) override {
      seen.push_back(q.pending());
    }
  } probe;
  EventQueue q;
  for (int i = 0; i < 4; ++i) q.schedule_at(10 * (i + 1), &probe);
  EXPECT_EQ(q.pending(), 4u);
  ASSERT_TRUE(q.step());
  EXPECT_EQ(q.pending(), 3u);
  q.schedule_at(100, &probe);
  EXPECT_EQ(q.pending(), 4u);
  EXPECT_EQ(q.run(), 4u);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_FALSE(q.step());
  EXPECT_EQ(probe.seen, (std::vector<std::size_t>{3, 3, 2, 1, 0}));
}

}  // namespace
}  // namespace hyrd::sim
