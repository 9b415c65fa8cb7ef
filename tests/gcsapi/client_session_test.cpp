#include <gtest/gtest.h>

#include "cloud/profiles.h"
#include "gcsapi/client.h"
#include "gcsapi/async_batch.h"
#include "gcsapi/session.h"

namespace hyrd::gcs {
namespace {

class ClientSessionTest : public ::testing::Test {
 protected:
  ClientSessionTest() { cloud::install_standard_four(registry_, 42); }

  cloud::CloudRegistry registry_;
};

TEST_F(ClientSessionTest, ClientLifecycleThroughMiddleware) {
  CloudClient client(registry_.find("Aliyun"));
  ASSERT_TRUE(client.create("c").ok());
  ASSERT_TRUE(client.put({"c", "k"}, common::bytes_of("data")).ok());
  auto got = client.get({"c", "k"});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(common::to_string(got.data), "data");
  auto listing = client.list("c");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing.names.size(), 1u);
  ASSERT_TRUE(client.remove({"c", "k"}).ok());
}

TEST_F(ClientSessionTest, EnsureContainerIsIdempotent) {
  CloudClient client(registry_.find("Aliyun"));
  EXPECT_TRUE(client.ensure_container("c").ok());
  EXPECT_TRUE(client.ensure_container("c").ok());
}

TEST_F(ClientSessionTest, TraceRecordsOps) {
  CloudClient client(registry_.find("Aliyun"));
  client.create("c");
  client.put({"c", "k"}, common::bytes_of("x"));
  client.get({"c", "k"});
  const auto trace = client.recent_ops();
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].op, cloud::OpKind::kCreate);
  EXPECT_EQ(trace[1].op, cloud::OpKind::kPut);
  EXPECT_EQ(trace[1].bytes, 1u);
  EXPECT_EQ(trace[2].op, cloud::OpKind::kGet);
  EXPECT_EQ(trace[2].provider, "Aliyun");
}

TEST_F(ClientSessionTest, TraceCapacityBounded) {
  CloudClient client(registry_.find("Aliyun"));
  client.set_trace_capacity(5);
  client.create("c");
  for (int i = 0; i < 20; ++i) {
    client.put({"c", "k" + std::to_string(i)}, common::bytes_of("x"));
  }
  EXPECT_EQ(client.recent_ops().size(), 5u);
}

TEST_F(ClientSessionTest, TraceRingKeepsNewestInOrderAcrossResizes) {
  // The ring overwrites in place once full; recent_ops() must still read
  // oldest-first, and resizing must keep the newest entries in order.
  CloudClient client(registry_.find("Aliyun"));
  client.create("c");
  client.set_trace_capacity(4);
  const auto put = [&](int i) {
    client.put({"c", "k" + std::to_string(i)}, common::bytes_of("xy"));
  };
  const auto keys = [&] {
    std::vector<std::string> out;
    for (const auto& e : client.recent_ops()) out.push_back(e.key);
    return out;
  };
  for (int i = 0; i < 11; ++i) put(i);  // wraps the ring twice and a bit
  EXPECT_EQ(keys(), (std::vector<std::string>{"c/k7", "c/k8", "c/k9", "c/k10"}));
  EXPECT_EQ(client.recent_ops().back().bytes, 2u);
  EXPECT_EQ(client.recent_ops().back().provider, "Aliyun");

  client.set_trace_capacity(2);  // shrink: keep the newest two
  EXPECT_EQ(keys(), (std::vector<std::string>{"c/k9", "c/k10"}));
  client.set_trace_capacity(3);  // grow: nothing lost, room for one more
  put(11);
  EXPECT_EQ(keys(), (std::vector<std::string>{"c/k9", "c/k10", "c/k11"}));
  put(12);
  EXPECT_EQ(keys(), (std::vector<std::string>{"c/k10", "c/k11", "c/k12"}));

  client.set_trace_capacity(0);  // tracing off
  put(13);
  EXPECT_TRUE(client.recent_ops().empty());
}

TEST_F(ClientSessionTest, UnavailableNotRetriedByDefault) {
  registry_.find("Aliyun")->set_online(false);
  CloudClient client(registry_.find("Aliyun"));
  auto r = client.get({"c", "k"});
  EXPECT_EQ(r.status.code(), common::StatusCode::kUnavailable);
  EXPECT_EQ(client.recent_ops().back().attempts, 1);
}

TEST_F(ClientSessionTest, UnavailableRetriedWhenPolicyAllows) {
  registry_.find("Aliyun")->set_online(false);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.retry_unavailable = true;
  CloudClient client(registry_.find("Aliyun"), policy);
  auto r = client.get({"c", "k"});
  EXPECT_EQ(r.status.code(), common::StatusCode::kUnavailable);
  EXPECT_EQ(client.recent_ops().back().attempts, 3);
}

TEST_F(ClientSessionTest, RetryBackoffAddsLatency) {
  registry_.find("Aliyun")->set_online(false);
  RetryPolicy no_retry = RetryPolicy::none();
  RetryPolicy with_retry{.max_attempts = 3,
                         .backoff_ms = 100.0,
                         .backoff_multiplier = 2.0,
                         .retry_unavailable = true};
  CloudClient a(registry_.find("Aliyun"), no_retry);
  CloudClient b(registry_.find("Aliyun"), with_retry);
  const auto la = a.get({"c", "k"}).latency;
  const auto lb = b.get({"c", "k"}).latency;
  // 3 attempts + backoffs (100 + 200 ms) vs 1 attempt.
  EXPECT_GE(lb, la * 3 + common::from_ms(300.0) - common::from_ms(1.0));
}

TEST_F(ClientSessionTest, SessionIndexing) {
  MultiCloudSession session(registry_);
  EXPECT_EQ(session.client_count(), 4u);
  EXPECT_EQ(session.index_of("AmazonS3"), 0u);
  EXPECT_EQ(session.index_of("Rackspace"), 3u);
  EXPECT_EQ(session.index_of("Nimbus"), static_cast<std::size_t>(-1));
}

TEST_F(ClientSessionTest, ParallelPutLatencyIsMax) {
  MultiCloudSession session(registry_);
  ASSERT_TRUE(session.ensure_container_everywhere("c").is_ok());

  const common::Bytes data = common::patterned(200000, 1);
  AsyncBatch batch(session);
  for (std::size_t i = 0; i < 4; ++i) {
    batch.submit(CloudOp::put(i, {"c", "k" + std::to_string(i)}, data));
  }
  BatchStats stats;
  auto results = batch.await_all(&stats);
  ASSERT_EQ(results.size(), 4u);
  common::SimDuration max_single = 0;
  for (const auto& r : results) {
    ASSERT_TRUE(r.ok());
    max_single = std::max(max_single, r.result.latency);
  }
  EXPECT_EQ(stats.latency, max_single);
  EXPECT_GT(stats.latency, 0);
}

TEST_F(ClientSessionTest, ParallelGetReturnsInOrder) {
  MultiCloudSession session(registry_);
  session.ensure_container_everywhere("c");
  for (std::size_t i = 0; i < 4; ++i) {
    session.client(i).put({"c", "k"},
                          common::bytes_of("v" + std::to_string(i)));
  }
  AsyncBatch batch(session);
  for (std::size_t i = 0; i < 4; ++i) batch.submit(CloudOp::get(i, {"c", "k"}));
  auto results = batch.await_all();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(results[i].op_index, i);
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(common::to_string(results[i].result.data),
              "v" + std::to_string(i));
  }
}

TEST_F(ClientSessionTest, ParallelRemoveHitsAllTargets) {
  MultiCloudSession session(registry_);
  session.ensure_container_everywhere("c");
  for (std::size_t i = 0; i < 4; ++i) {
    session.client(i).put({"c", "k"}, common::bytes_of("x"));
  }
  AsyncBatch batch(session);
  for (std::size_t i = 0; i < 4; ++i) {
    batch.submit(CloudOp::remove(i, {"c", "k"}));
  }
  for (const auto& r : batch.await_all()) EXPECT_TRUE(r.ok());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(session.client(i).get({"c", "k"}).ok());
  }
}

TEST_F(ClientSessionTest, EnsureContainerEverywhereToleratesOutage) {
  registry_.find("Rackspace")->set_online(false);
  MultiCloudSession session(registry_);
  EXPECT_TRUE(session.ensure_container_everywhere("c").is_ok());
}

}  // namespace
}  // namespace hyrd::gcs
