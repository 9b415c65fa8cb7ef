#include <gtest/gtest.h>

#include "cloud/profiles.h"
#include "gcsapi/client.h"
#include "gcsapi/async_batch.h"
#include "gcsapi/session.h"
#include "support/cloud_spans.h"

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
  test::CloudSpanCapture capture;
  CloudClient client(registry_.find("Aliyun"));
  client.create("c");
  client.put({"c", "k"}, common::bytes_of("x"));
  client.get({"c", "k"});
  const auto spans = capture.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(std::string_view(spans[0].name),
            cloud::op_kind_name(cloud::OpKind::kCreate));
  EXPECT_EQ(std::string_view(spans[1].name),
            cloud::op_kind_name(cloud::OpKind::kPut));
  EXPECT_EQ(test::span_arg(spans[1], "bytes"), 1);
  EXPECT_EQ(std::string_view(spans[2].name),
            cloud::op_kind_name(cloud::OpKind::kGet));
  EXPECT_EQ(spans[2].detail, "Aliyun");
}

TEST_F(ClientSessionTest, UnavailableNotRetriedByDefault) {
  registry_.find("Aliyun")->set_online(false);
  test::CloudSpanCapture capture;
  CloudClient client(registry_.find("Aliyun"));
  auto r = client.get({"c", "k"});
  EXPECT_EQ(r.status.code(), common::StatusCode::kUnavailable);
  ASSERT_EQ(capture.spans().size(), 1u);
  EXPECT_EQ(test::span_arg(capture.spans().back(), "attempts"), 1);
}

TEST_F(ClientSessionTest, UnavailableRetriedWhenPolicyAllows) {
  registry_.find("Aliyun")->set_online(false);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.retry_unavailable = true;
  test::CloudSpanCapture capture;
  CloudClient client(registry_.find("Aliyun"), policy);
  auto r = client.get({"c", "k"});
  EXPECT_EQ(r.status.code(), common::StatusCode::kUnavailable);
  ASSERT_EQ(capture.spans().size(), 1u);
  EXPECT_EQ(test::span_arg(capture.spans().back(), "attempts"), 3);
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
    batch.submit(CloudOp::put(
        i, {"c", std::string("k").append(std::to_string(i))}, data));
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
                          common::bytes_of(
                              std::string("v").append(std::to_string(i))));
  }
  AsyncBatch batch(session);
  for (std::size_t i = 0; i < 4; ++i) batch.submit(CloudOp::get(i, {"c", "k"}));
  auto results = batch.await_all();
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(results[i].op_index, i);
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(common::to_string(results[i].result.data),
              std::string("v").append(std::to_string(i)));
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
