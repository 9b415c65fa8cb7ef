// AsyncBatch: the order-statistic engine under the GCS-API layer.
// Verifies the virtual-time aggregation contracts (await_all == legacy
// max, await_first == order statistic, offset chaining == legacy sums)
// and the ack policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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
}

TEST_F(AsyncBatchTest, AwaitFirstChargesOrderStatistic) {
  // await_first's latency must be the k-th smallest arrival over the
  // usable responses, while every op still resolves.
  constexpr std::size_t kNeed = 2;
  AsyncBatch batch(session_);
  for (std::size_t i = 0; i < 4; ++i) {
    batch.submit(CloudOp::get(i, {"c", "obj"}));
  }
  BatchStats stats;
  auto completions = batch.await_first(kNeed, &stats);

  std::vector<common::SimDuration> usable;
  common::SimDuration max_arrival = 0;
  ASSERT_EQ(completions.size(), 4u);
  for (const auto& c : completions) {
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
    const auto& c =
        batch.completion(batch.submit(CloudOp::get(i, {"c", "obj"}, chain)));
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(c.arrival, chain + c.result.latency);
    chain = c.arrival;
    sum += c.result.latency;
  }
  EXPECT_EQ(chain, sum);
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

TEST_F(AsyncBatchTest, LateSubmitAfterCancelStillRuns) {
  // Submission after an await_* is allowed: the late op runs and gets the
  // next op_index.
  AsyncBatch batch(session_);
  batch.submit(CloudOp::get(0, {"c", "obj"}));
  batch.await_all();
  const std::size_t late = batch.submit(CloudOp::get(1, {"c", "obj"}));
  EXPECT_EQ(late, 1u);
  const auto& c = batch.completion(late);
  EXPECT_EQ(c.op_index, late);
  EXPECT_TRUE(c.ok());
  EXPECT_EQ(c.result.data, payload_);
}

}  // namespace
}  // namespace hyrd::gcs
