// The bounded-capacity fair queue (cloud/congestion.h): slot queueing,
// the depth-cap 429, start-time-fair-queuing pacing, and the SimProvider
// integration (only VirtualScope traffic is subject to it).
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <unordered_map>
#include <vector>

#include "cloud/congestion.h"
#include "cloud/profiles.h"
#include "cloud/provider.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/virtual_time.h"

namespace hyrd::cloud {
namespace {

CongestionParams narrow(std::size_t channels, std::size_t depth = 250'000) {
  return {.channels = channels,
          .per_op_service_ms = 10.0,
          .service_mbps = 200.0,
          .max_queue_depth = depth};
}

constexpr common::SimDuration kTenMs = 10 * common::kMillisecond;

TEST(FairQueue, UncontendedOpsPassWithZeroWait) {
  FairQueue q(narrow(2));
  // Distinct tenants, free slots: no queueing, no pacing.
  EXPECT_EQ(q.admit(1, 1.0, 0, 0).wait, 0);
  EXPECT_EQ(q.admit(2, 1.0, 0, 0).wait, 0);
  EXPECT_EQ(q.stats().admitted, 2u);
  EXPECT_EQ(q.stats().queued, 0u);
}

TEST(FairQueue, SingleChannelQueuesFifo) {
  FairQueue q(narrow(1));
  EXPECT_EQ(q.admit(1, 1.0, 0, 0).wait, 0);
  EXPECT_EQ(q.admit(2, 1.0, 0, 0).wait, kTenMs);
  EXPECT_EQ(q.admit(3, 1.0, 0, 0).wait, 2 * kTenMs);
  EXPECT_EQ(q.stats().queued, 2u);
  EXPECT_EQ(q.stats().max_wait, 2 * kTenMs);
}

TEST(FairQueue, ServiceTimeChargesBytes) {
  FairQueue q(narrow(1));
  // 2 MB at 200 MB/s = 10 ms on top of the 10 ms per-op cost.
  EXPECT_EQ(q.service_time(2'000'000), 2 * kTenMs);
  EXPECT_EQ(q.service_time(0), kTenMs);
}

TEST(FairQueue, DepthCapRejectsWithThrottleStat) {
  FairQueue q(narrow(1, /*depth=*/2));
  EXPECT_TRUE(q.admit(1, 1.0, 0, 0).admitted);  // runs, not waiting
  EXPECT_TRUE(q.admit(2, 1.0, 0, 0).admitted);  // waiting (depth 1)
  EXPECT_TRUE(q.admit(3, 1.0, 0, 0).admitted);  // waiting (depth 2)
  EXPECT_FALSE(q.admit(4, 1.0, 0, 0).admitted);
  EXPECT_EQ(q.stats().throttled, 1u);
  EXPECT_EQ(q.stats().peak_depth, 2u);

  // Once virtual time passes the backlog's begin times, admission resumes.
  EXPECT_TRUE(q.admit(4, 1.0, 3 * kTenMs, 0).admitted);
}

TEST(FairQueue, HotFlowSelfQueuesWhileLightFlowPassesThrough) {
  // Five free channels, one tenant bursting 4 ops at t=0: pacing gates
  // each of its ops behind its own flow tag (begins 0/10/20/30 ms despite
  // the idle slots), so a light tenant arriving at the same instant finds
  // a free slot and starts immediately — the starvation-prevention
  // property one hot tenant must not defeat.
  FairQueue q(narrow(5));
  common::SimDuration hot_wait = 0;
  for (int i = 0; i < 4; ++i) hot_wait += q.admit(7, 1.0, 0, 0).wait;
  EXPECT_EQ(hot_wait, (1 + 2 + 3) * kTenMs);  // begins 0, 10, 20, 30 ms
  EXPECT_EQ(q.admit(8, 1.0, 0, 0).wait, 0);   // light flow: untouched
}

TEST(FairQueue, HigherWeightMeansLessSelfQueueing) {
  FairQueue heavy(narrow(4));
  FairQueue light(narrow(4));
  common::SimDuration w4 = 0, w1 = 0;
  for (int i = 0; i < 4; ++i) {
    w4 += heavy.admit(7, 4.0, 0, 0).wait;
    w1 += light.admit(7, 1.0, 0, 0).wait;
  }
  // Weight 4 advances its tag by service/4 per op: a quarter the pacing.
  EXPECT_LT(w4, w1);
  EXPECT_EQ(w4, (1 + 2 + 3) * kTenMs / 4);
}

TEST(FairQueue, LateArrivalsNeverRewindState) {
  FairQueue q(narrow(1));
  EXPECT_EQ(q.admit(1, 1.0, 5 * kTenMs, 0).wait, 0);
  // An op arriving "late" (failover chain) still queues behind the slot.
  const auto a = q.admit(2, 1.0, 0, 0);
  EXPECT_EQ(a.wait, 6 * kTenMs);  // slot busy until t=60ms
}

TEST(SimProviderCongestion, OnlyVirtualScopeTrafficIsSubject) {
  SimProvider provider(aliyun_profile(), 42);
  provider.set_congestion(narrow(1));
  ASSERT_TRUE(provider.congestion_enabled());
  ASSERT_TRUE(provider.create("c").status.is_ok());

  // No VirtualScope: legacy path, the queue never sees the op.
  ASSERT_TRUE(provider.put({"c", "legacy"}, common::Buffer::of("x")).status.is_ok());
  EXPECT_EQ(provider.congestion_stats().admitted, 0u);

  // Under a scope the same op is admitted (and the wait lands in latency).
  {
    common::VirtualScope scope({.now = 0, .tenant = 1, .weight = 1.0});
    ASSERT_TRUE(provider.put({"c", "sim"}, common::Buffer::of("y")).status.is_ok());
  }
  EXPECT_EQ(provider.congestion_stats().admitted, 1u);
}

TEST(SimProviderCongestion, OverloadReturns429AndCountsThrottled) {
  SimProvider provider(aliyun_profile(), 42);
  provider.set_congestion(narrow(1, /*depth=*/1));
  ASSERT_TRUE(provider.create("c").status.is_ok());

  common::VirtualScope scope({.now = 0, .tenant = 5, .weight = 1.0});
  OpResult last;
  int throttled = 0;
  for (int i = 0; i < 4; ++i) {
    last = provider.put({"c", std::string("o").append(std::to_string(i))},
                        common::Buffer::of("z"));
    if (!last.status.is_ok()) ++throttled;
  }
  EXPECT_GT(throttled, 0);
  EXPECT_EQ(last.status.code(), common::StatusCode::kResourceExhausted);
  EXPECT_EQ(provider.counters().throttled, static_cast<std::uint64_t>(throttled));
  // Throttled ops never reach the store.
  EXPECT_EQ(provider.object_count(), 4u - static_cast<unsigned>(throttled));
}

TEST(SimProviderCongestion, QueueingDelayIsVisibleInOpLatency) {
  // Twin providers, same seed: the only difference is the installed queue.
  SimProvider free_p(aliyun_profile(), 99);
  SimProvider queued_p(aliyun_profile(), 99);
  queued_p.set_congestion(narrow(1));
  ASSERT_TRUE(free_p.create("c").status.is_ok());
  ASSERT_TRUE(queued_p.create("c").status.is_ok());

  common::SimDuration lat_free = 0, lat_queued = 0;
  {
    common::VirtualScope scope({.now = 0, .tenant = 1, .weight = 1.0});
    for (int i = 0; i < 3; ++i) {
      lat_free = free_p.put({"c", "o"}, common::Buffer::of("x")).latency;
      // Distinct tenants so pacing doesn't apply: pure slot queueing.
      common::VirtualScope inner(
          {.now = 0, .tenant = 10 + static_cast<std::uint64_t>(i),
           .weight = 1.0});
      lat_queued = queued_p.put({"c", "o"}, common::Buffer::of("x")).latency;
    }
  }
  // Third op on the single-channel provider carries >= 2 service times of
  // queueing delay on top of the identically-seeded base latency.
  EXPECT_GE(lat_queued, lat_free + 2 * kTenMs);
}

TEST(FairQueue, DepthCapBoundaryAdmitsExactlyMaxQueueDepthWaiters) {
  // The cap counts *waiters*, not in-service requests: with C channels and
  // depth D, exactly C + D simultaneous arrivals are admitted and the
  // (C + D + 1)-th is the first 429. Guards the off-by-one at the
  // `waiting >= max_queue_depth` boundary.
  constexpr std::size_t kChannels = 2;
  constexpr std::size_t kDepth = 5;
  FairQueue q(narrow(kChannels, kDepth));
  for (std::size_t i = 0; i < kChannels + kDepth; ++i) {
    EXPECT_TRUE(q.admit(100 + i, 1.0, 0, 0).admitted) << "arrival " << i;
  }
  EXPECT_EQ(q.stats().peak_depth, kDepth);
  EXPECT_EQ(q.stats().throttled, 0u);
  // One more at the same instant: the queue is exactly full.
  EXPECT_FALSE(q.admit(999, 1.0, 0, 0).admitted);
  EXPECT_EQ(q.stats().throttled, 1u);
  EXPECT_EQ(q.stats().peak_depth, kDepth);  // never exceeded the cap
}


/// The node-based FairQueue this module shipped with before its flow tags
/// moved to an open-addressed table, kept as the differential reference:
/// the admission math, depth cap and 4096-admit stale-tag sweep are copied
/// verbatim (only the obs counters and trace spans are left out; they
/// observe, they do not decide).
class ReferenceFairQueue {
 public:
  explicit ReferenceFairQueue(CongestionParams params) : params_(params) {
    if (params_.channels == 0) params_.channels = 1;
    slot_free_.assign(params_.channels, 0);
  }

  common::SimDuration service_time(std::uint64_t bytes) const {
    double ms = params_.per_op_service_ms;
    if (bytes > 0 && params_.service_mbps > 0) {
      ms += static_cast<double>(bytes) / (params_.service_mbps * 1e6) * 1e3;
    }
    return common::from_ms(ms);
  }

  std::size_t depth_at(common::SimDuration now) {
    prune(now);
    return waiting_.size();
  }

  FairQueue::Admission admit(std::uint64_t tenant, double weight,
                             common::SimDuration arrival,
                             std::uint64_t bytes) {
    prune(arrival);
    if (waiting_.size() >= params_.max_queue_depth) {
      ++stats_.throttled;
      return {.admitted = false, .wait = 0};
    }

    const common::SimDuration service = service_time(bytes);
    if (weight <= 0.0) weight = 1.0;

    common::SimDuration gate = arrival;
    if (auto it = flow_tag_.find(tenant); it != flow_tag_.end()) {
      gate = std::max(gate, it->second);
    }

    auto slot = std::min_element(slot_free_.begin(), slot_free_.end());
    const common::SimDuration begin = std::max(gate, *slot);
    *slot = begin + service;
    flow_tag_[tenant] = begin + static_cast<common::SimDuration>(
                                    static_cast<double>(service) / weight);

    const common::SimDuration wait = begin - arrival;
    ++stats_.admitted;
    if (wait > 0) {
      ++stats_.queued;
      waiting_.push(begin);
      stats_.peak_depth = std::max(stats_.peak_depth, waiting_.size());
      stats_.total_wait += wait;
      stats_.max_wait = std::max(stats_.max_wait, wait);
    }

    if (++admits_since_prune_ >= 4096) {
      admits_since_prune_ = 0;
      for (auto it = flow_tag_.begin(); it != flow_tag_.end();) {
        it = it->second <= arrival ? flow_tag_.erase(it) : std::next(it);
      }
    }
    return {.admitted = true, .wait = wait};
  }

  const CongestionStats& stats() const { return stats_; }
  std::size_t flows() const { return flow_tag_.size(); }

 private:
  void prune(common::SimDuration arrival) {
    while (!waiting_.empty() && waiting_.top() <= arrival) waiting_.pop();
  }

  CongestionParams params_;
  CongestionStats stats_;
  std::vector<common::SimDuration> slot_free_;
  std::priority_queue<common::SimDuration, std::vector<common::SimDuration>,
                      std::greater<>>
      waiting_;
  std::unordered_map<std::uint64_t, common::SimDuration> flow_tag_;
  std::uint64_t admits_since_prune_ = 0;
};

void expect_same_stats(const CongestionStats& a, const CongestionStats& b,
                       std::size_t step) {
  EXPECT_EQ(a.admitted, b.admitted) << "step " << step;
  EXPECT_EQ(a.queued, b.queued) << "step " << step;
  EXPECT_EQ(a.throttled, b.throttled) << "step " << step;
  EXPECT_EQ(a.total_wait, b.total_wait) << "step " << step;
  EXPECT_EQ(a.max_wait, b.max_wait) << "step " << step;
  EXPECT_EQ(a.peak_depth, b.peak_depth) << "step " << step;
}

TEST(FairQueue, MatchesNodeMapReferenceOverSeededStream) {
  // A seeded arrival stream that exercises every branch of admit(): a few
  // hot tenants that stay backlogged (re-admitted flows), a long tail of
  // light ones whose tags go stale and are swept, late arrivals (failover
  // legs land before the latest arrival), zero and fractional weights, and
  // a depth cap the bursts run into. Far more than 4096 admits, so the
  // stale-tag sweep runs many times.
  const CongestionParams params{.channels = 4,
                                .per_op_service_ms = 2.0,
                                .service_mbps = 200.0,
                                .max_queue_depth = 48};
  FairQueue q(params);
  ReferenceFairQueue ref(params);
  common::Xoshiro256 rng(2015);
  common::SimDuration clock = 0;
  constexpr std::size_t kSteps = 40'000;
  for (std::size_t step = 0; step < kSteps; ++step) {
    // Bursty arrivals: mostly sub-service-time gaps, sometimes a lull long
    // enough for the queue to drain and the light flows' tags to expire.
    clock += rng.chance(0.02)
                 ? static_cast<common::SimDuration>(rng.uniform_int(
                       20 * common::kMillisecond, 200 * common::kMillisecond))
                 : static_cast<common::SimDuration>(
                       rng.uniform_int(0, 600 * common::kMicrosecond));
    common::SimDuration arrival = clock;
    if (rng.chance(0.1)) {
      const auto back = static_cast<common::SimDuration>(
          rng.uniform_int(0, 30 * common::kMillisecond));
      arrival = std::max<common::SimDuration>(0, clock - back);
    }
    const std::uint64_t tenant = rng.chance(0.4)
                                     ? rng.uniform_int(0, 7)        // hot
                                     : rng.uniform_int(8, 5'000);   // light
    const double weights[] = {1.0, 1.0, 2.0, 0.5, 0.0, 4.0};
    const double weight = weights[rng.uniform_int(0, 5)];
    const std::uint64_t bytes =
        rng.chance(0.3) ? 0 : rng.uniform_int(1, 256 * 1024);

    const auto got = q.admit(tenant, weight, arrival, bytes);
    const auto want = ref.admit(tenant, weight, arrival, bytes);
    ASSERT_EQ(got.admitted, want.admitted) << "step " << step;
    ASSERT_EQ(got.wait, want.wait) << "step " << step;
    if (step % 61 == 0) {
      const common::SimDuration probe =
          clock + static_cast<common::SimDuration>(
                      rng.uniform_int(0, 5 * common::kMillisecond));
      ASSERT_EQ(q.depth_at(probe), ref.depth_at(probe)) << "step " << step;
    }
    if (step % 1000 == 0) expect_same_stats(q.stats(), ref.stats(), step);
  }
  expect_same_stats(q.stats(), ref.stats(), kSteps);
  // The stream really covered what it claims to.
  EXPECT_GT(ref.stats().admitted, 3u * 4096u);
  EXPECT_GT(ref.stats().throttled, 0u);
  EXPECT_GT(ref.stats().queued, 0u);
  EXPECT_LT(ref.flows(), 5'000u);  // the sweep dropped stale tags
}

}  // namespace
}  // namespace hyrd::cloud
