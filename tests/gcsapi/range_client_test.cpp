// Range operations through the GCS-API middleware and the parallel
// session fan-out.
#include <gtest/gtest.h>

#include "cloud/profiles.h"
#include "gcsapi/async_batch.h"
#include "gcsapi/session.h"
#include "support/cloud_spans.h"

namespace hyrd::gcs {
namespace {

class RangeClientTest : public ::testing::Test {
 protected:
  RangeClientTest() {
    cloud::install_standard_four(registry_, 173);
    session_ = std::make_unique<MultiCloudSession>(registry_);
    session_->ensure_container_everywhere("c");
  }
  cloud::CloudRegistry registry_;
  std::unique_ptr<MultiCloudSession> session_;
};

TEST_F(RangeClientTest, GetRangeThroughClient) {
  auto& client = session_->client(session_->index_of("Aliyun"));
  client.put({"c", "k"}, common::bytes_of("hello world"));
  auto r = client.get_range({"c", "k"}, 6, 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(common::to_string(r.data), "world");
  EXPECT_EQ(r.bytes_transferred, 5u);
}

TEST_F(RangeClientTest, PutRangeThroughClient) {
  auto& client = session_->client(session_->index_of("Aliyun"));
  client.put({"c", "k"}, common::bytes_of("hello world"));
  ASSERT_TRUE(client.put_range({"c", "k"}, 0, common::bytes_of("HELLO")).ok());
  auto r = client.get({"c", "k"});
  EXPECT_EQ(common::to_string(r.data), "HELLO world");
}

TEST_F(RangeClientTest, RangeOpsAppearInTrace) {
  auto& client = session_->client(session_->index_of("Aliyun"));
  test::CloudSpanCapture capture;
  client.put({"c", "k"}, common::bytes_of("0123456789"));
  client.get_range({"c", "k"}, 0, 4);
  client.put_range({"c", "k"}, 2, common::bytes_of("xy"));
  const auto spans = capture.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(std::string_view(spans[1].name),
            cloud::op_kind_name(cloud::OpKind::kGet));
  EXPECT_EQ(test::span_arg(spans[1], "bytes"), 4);
  EXPECT_EQ(std::string_view(spans[2].name),
            cloud::op_kind_name(cloud::OpKind::kPut));
  EXPECT_EQ(test::span_arg(spans[2], "bytes"), 2);
  EXPECT_EQ(spans[2].detail, "Aliyun");
}

TEST_F(RangeClientTest, ParallelGetRangeBatch) {
  for (std::size_t i = 0; i < 4; ++i) {
    session_->client(i).put({"c", "k"}, common::patterned(10000, i));
  }
  AsyncBatch batch(*session_);
  for (std::size_t i = 0; i < 4; ++i) {
    batch.submit(CloudOp::get_range(i, {"c", "k"}, 100, 256));
  }
  BatchStats stats;
  auto results = batch.await_all(&stats);
  common::SimDuration max_single = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(results[i].ok());
    const common::Bytes full = common::patterned(10000, i);
    EXPECT_EQ(results[i].result.data,
              common::Bytes(full.begin() + 100, full.begin() + 356));
    max_single = std::max(max_single, results[i].result.latency);
  }
  EXPECT_EQ(stats.latency, max_single);
}

TEST_F(RangeClientTest, ParallelPutRangeBatch) {
  for (std::size_t i = 0; i < 4; ++i) {
    session_->client(i).put({"c", "k"}, common::Bytes(1000, 0));
  }
  const auto patch = common::patterned(64, 1);
  AsyncBatch batch(*session_);
  for (std::size_t i = 0; i < 4; ++i) {
    batch.submit(CloudOp::put_range(i, {"c", "k"}, 500, patch));
  }
  auto results = batch.await_all();
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(results[i].ok());
    auto r = session_->client(i).get_range({"c", "k"}, 500, 64);
    EXPECT_EQ(r.data, patch);
  }
}

TEST_F(RangeClientTest, RangeBeyondEofSurfacesInvalidArgument) {
  auto& client = session_->client(0);
  client.put({"c", "k"}, common::Bytes(10, 0));
  EXPECT_EQ(client.get_range({"c", "k"}, 8, 5).status.code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(client.put_range({"c", "k"}, 8, common::Bytes(5, 0)).status.code(),
            common::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hyrd::gcs
