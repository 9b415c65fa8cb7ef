// AsyncBatch: the completion-ordered engine under the GCS-API layer.
// Verifies the virtual-time aggregation contracts (await_all == legacy
// max, await_first == order statistic, offset chaining == legacy sums),
// the ack policies, and cooperative cancellation end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "cloud/cancel.h"
#include "cloud/profiles.h"
#include "common/bytes.h"
#include "gcsapi/async_batch.h"
#include "gcsapi/session.h"

namespace hyrd::gcs {
namespace {

class AsyncBatchTest : public ::testing::Test {
 protected:
  AsyncBatchTest() : session_((cloud::install_standard_four(registry_, 42),
                               registry_)) {
    session_.ensure_container_everywhere("c");
    payload_ = common::patterned(200000, 7);
    for (std::size_t i = 0; i < session_.client_count(); ++i) {
      session_.client(i).put({"c", "obj"}, payload_);
    }
  }

  cloud::CloudRegistry registry_;
  MultiCloudSession session_;
  common::Bytes payload_;
};

TEST_F(AsyncBatchTest, AwaitAllLatencyIsMaxArrival) {
  AsyncBatch batch(session_);
  for (std::size_t i = 0; i < 4; ++i) {
    batch.submit(CloudOp::get(i, {"c", "obj"}));
  }
  BatchStats stats;
  auto completions = batch.await_all(&stats);
  ASSERT_EQ(completions.size(), 4u);
  common::SimDuration max_arrival = 0;
  for (const auto& c : completions) {
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(c.arrival, c.result.latency);  // offset 0: arrival == latency
    max_arrival = std::max(max_arrival, c.arrival);
  }
  EXPECT_EQ(stats.latency, max_arrival);
  EXPECT_EQ(stats.latency, stats.max_latency);
  EXPECT_EQ(stats.saved(), 0);
  EXPECT_EQ(stats.succeeded, 4u);
  EXPECT_EQ(stats.cancelled, 0u);
}

TEST_F(AsyncBatchTest, AwaitFirstChargesOrderStatistic) {
  // With no stragglers left in flight (all four resolve before the k-th
  // check can fire, or get cancelled), await_first's latency must be the
  // k-th smallest arrival over the usable responses it actually kept.
  constexpr std::size_t kNeed = 2;
  AsyncBatch batch(session_);
  for (std::size_t i = 0; i < 4; ++i) {
    batch.submit(CloudOp::get(i, {"c", "obj"}));
  }
  BatchStats stats;
  auto completions = batch.await_first(kNeed, &stats);

  std::vector<common::SimDuration> usable;
  common::SimDuration max_arrival = 0;
  for (const auto& c : completions) {
    if (c.cancelled) continue;
    max_arrival = std::max(max_arrival, c.arrival);
    if (c.result.status.is_ok()) usable.push_back(c.arrival);
  }
  ASSERT_GE(usable.size(), kNeed);
  std::sort(usable.begin(), usable.end());
  EXPECT_EQ(stats.latency, usable[kNeed - 1]);
  EXPECT_EQ(stats.max_latency, max_arrival);
  EXPECT_LE(stats.latency, stats.max_latency);
}

TEST_F(AsyncBatchTest, StartOffsetChainReproducesSequentialSum) {
  // Legacy sequential semantics: each op submitted at the previous op's
  // arrival; the final arrival is the sum of individual latencies.
  AsyncBatch batch(session_);
  common::SimDuration chain = 0;
  common::SimDuration sum = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    batch.submit(CloudOp::get(i, {"c", "obj"}, chain));
    auto c = batch.next();
    ASSERT_TRUE(c.has_value());
    ASSERT_TRUE(c->ok());
    EXPECT_EQ(c->arrival, chain + c->result.latency);
    chain = c->arrival;
    sum += c->result.latency;
  }
  EXPECT_EQ(chain, sum);
  EXPECT_EQ(batch.pending(), 0u);
}

TEST_F(AsyncBatchTest, AckPoliciesAreOrderedByRank) {
  const auto run = [&](std::size_t quorum) {
    AsyncBatch batch(session_);
    for (std::size_t i = 0; i < 4; ++i) {
      batch.submit(CloudOp::put(i, {"c", "ack" + std::to_string(quorum)},
                                common::ByteSpan(payload_)));
    }
    BatchStats stats;
    auto completions = batch.await_quorum(quorum, &stats);
    EXPECT_EQ(stats.succeeded, 4u);  // every write still lands
    EXPECT_EQ(stats.cancelled, 0u);
    for (const auto& c : completions) EXPECT_TRUE(c.ok());
    return stats;
  };
  const auto first = run(1);
  const auto quorum = run(3);
  const auto all = run(4);
  // Rank ordering must hold: 1st success <= 3rd success <= slowest.
  EXPECT_LE(first.latency, quorum.latency);
  EXPECT_LE(quorum.latency, all.latency);
  EXPECT_GT(first.latency, 0);
  EXPECT_EQ(all.latency, all.max_latency);
}

TEST_F(AsyncBatchTest, EveryAckPolicyLeavesIdenticalDurableState) {
  // An early quorum ack must never trade away durability: whatever the
  // rank, all four replicas exist afterwards and billing saw all four puts.
  for (const std::size_t quorum : {1u, 3u, 4u}) {
    cloud::CloudRegistry reg;
    cloud::install_standard_four(reg, 77);
    MultiCloudSession session(reg);
    session.ensure_container_everywhere("c");
    AsyncBatch batch(session);
    for (std::size_t i = 0; i < session.client_count(); ++i) {
      batch.submit(CloudOp::put(i, {"c", "k"}, common::ByteSpan(payload_)));
    }
    BatchStats stats;
    batch.await_quorum(quorum, &stats);
    for (std::size_t i = 0; i < session.client_count(); ++i) {
      auto got = session.client(i).get({"c", "k"});
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.data, payload_);
      EXPECT_EQ(session.client(i).provider()->counters().puts, 1u);
    }
  }
}

TEST_F(AsyncBatchTest, CancelledStragglerIsCheapAndCounted) {
  // Wedge one provider with a stall hook that only releases when the
  // client tears the request down; prove the cancelled op costs nothing
  // (no latency draw, no billing, no counter except `cancelled`).
  auto* slow = registry_.find("WindowsAzure");
  const auto before = slow->counters();
  const double billed_before = slow->billing().open_month_transfer_cost();
  std::atomic<bool> stalled{false};
  slow->set_op_hook([&](cloud::OpKind, const cloud::ObjectKey&) {
    stalled.store(true);
    while (!cloud::CancelScope::cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  AsyncBatch batch(session_);
  const std::size_t slow_index = session_.index_of("WindowsAzure");
  for (std::size_t i = 0; i < 4; ++i) {
    batch.submit(CloudOp::get(i, {"c", "obj"}));
  }
  // Wait until the wedged request is provably inside the provider, then
  // complete at the first 3 usable responses; the straggler is cancelled.
  while (!stalled.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  BatchStats stats;
  auto completions = batch.await_first(3, &stats);
  slow->set_op_hook(nullptr);

  ASSERT_EQ(completions.size(), 4u);
  EXPECT_TRUE(completions[slow_index].cancelled);
  EXPECT_EQ(completions[slow_index].result.status.code(),
            common::StatusCode::kCancelled);
  EXPECT_EQ(completions[slow_index].result.latency, 0);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.succeeded, 3u);

  const auto after = slow->counters();
  EXPECT_EQ(after.cancelled, before.cancelled + 1);
  EXPECT_EQ(after.gets, before.gets);  // never committed as a served GET
  EXPECT_EQ(after.bytes_read, before.bytes_read);
  EXPECT_EQ(slow->billing().open_month_transfer_cost(), billed_before);
}

TEST_F(AsyncBatchTest, CancelBeforeDispatchNeverReachesProvider) {
  // Saturate the pool with stalls so a later op is still queued when the
  // batch cancels; it must resolve kCancelled without touching the
  // provider at all (not even the op hook).
  auto* slow = registry_.find("WindowsAzure");
  std::atomic<int> entered{0};
  slow->set_op_hook([&](cloud::OpKind, const cloud::ObjectKey&) {
    entered.fetch_add(1);
    while (!cloud::CancelScope::cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  const std::size_t slow_index = session_.index_of("WindowsAzure");
  const std::size_t workers = session_.pool().size();

  AsyncBatch batch(session_);
  for (std::size_t i = 0; i < workers; ++i) {
    batch.submit(CloudOp::get(slow_index, {"c", "obj"}));
  }
  while (entered.load() < static_cast<int>(workers)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Every worker is wedged inside the hook; this op can only be queued.
  const std::size_t queued = batch.submit(CloudOp::get(0, {"c", "obj"}));
  const auto aliyun_gets_before =
      session_.client(0).provider()->counters().gets;
  batch.cancel_remaining();
  BatchStats stats;
  auto completions = batch.await_all(&stats);
  slow->set_op_hook(nullptr);

  EXPECT_TRUE(completions[queued].cancelled);
  EXPECT_EQ(entered.load(), static_cast<int>(workers));
  EXPECT_EQ(session_.client(0).provider()->counters().gets,
            aliyun_gets_before);
  // Pre-dispatch cancellations never reached a provider, so they don't
  // even show up in the target's cancelled audit counter.
  EXPECT_EQ(session_.client(0).provider()->counters().cancelled, 0u);
  EXPECT_EQ(stats.cancelled, static_cast<std::size_t>(workers) + 1);
}

TEST_F(AsyncBatchTest, LateSubmitAfterCancelStillRuns) {
  AsyncBatch batch(session_);
  batch.submit(CloudOp::get(0, {"c", "obj"}));
  batch.await_all();
  batch.cancel_remaining();  // no-op: everything resolved
  const std::size_t late = batch.submit(CloudOp::get(1, {"c", "obj"}));
  auto c = batch.next();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->op_index, late);
  EXPECT_TRUE(c->ok());
  EXPECT_EQ(c->result.data, payload_);
}

TEST_F(AsyncBatchTest, DestructorJoinsWedgedTasks) {
  // A batch abandoned mid-flight (e.g. its scheme threw) must cancel and
  // join its tasks rather than leaving a pool thread running into freed
  // buffers. If teardown failed to unwedge the stall, this test would
  // hang rather than fail.
  auto* slow = registry_.find("WindowsAzure");
  std::atomic<bool> stalled{false};
  slow->set_op_hook([&](cloud::OpKind, const cloud::ObjectKey&) {
    stalled.store(true);
    while (!cloud::CancelScope::cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  {
    AsyncBatch batch(session_);
    batch.submit(
        CloudOp::get(session_.index_of("WindowsAzure"), {"c", "obj"}));
    while (!stalled.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Batch destroyed with the op still wedged inside the provider.
  }
  slow->set_op_hook(nullptr);
  EXPECT_EQ(slow->counters().cancelled, 1u);
}

}  // namespace
}  // namespace hyrd::gcs
