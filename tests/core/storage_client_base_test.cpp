#include <gtest/gtest.h>

#include "cloud/profiles.h"
#include "core/single_client.h"
#include "core/storage_client.h"

namespace hyrd::core {
namespace {

TEST(StorageClientBase, MetaBlockPathRoundTrip) {
  const std::string path = StorageClient::meta_block_path("/mail/in");
  auto dir = StorageClient::parse_meta_block_path(path);
  ASSERT_TRUE(dir.has_value());
  EXPECT_EQ(*dir, "/mail/in");
}

TEST(StorageClientBase, UserPathsAreNotMetaBlockPaths) {
  EXPECT_FALSE(StorageClient::parse_meta_block_path("/mail/in").has_value());
  EXPECT_FALSE(StorageClient::parse_meta_block_path("/").has_value());
  EXPECT_FALSE(StorageClient::parse_meta_block_path("").has_value());
}

TEST(StorageClientBase, MetaBlockObjectNameDeterministicPerDirectory) {
  EXPECT_EQ(StorageClient::meta_block_object_name("/a"),
            StorageClient::meta_block_object_name("/a"));
  EXPECT_NE(StorageClient::meta_block_object_name("/a"),
            StorageClient::meta_block_object_name("/b"));
  EXPECT_TRUE(
      StorageClient::meta_block_object_name("/a").starts_with("md."));
}

TEST(ClientStats, MeanAcrossOpKinds) {
  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, 277);
  gcs::MultiCloudSession session(registry);
  SingleCloudClient client(session, "Aliyun");

  EXPECT_DOUBLE_EQ(client.stats_snapshot().mean_op_ms(), 0.0);

  client.put("/f", common::patterned(10000, 1));
  client.get("/f");
  client.update("/f", 0, common::patterned(100, 2));
  client.remove("/f");

  const auto s = client.stats_snapshot();
  EXPECT_EQ(s.put_ms.count(), 1u);
  EXPECT_EQ(s.get_ms.count(), 1u);
  EXPECT_EQ(s.update_ms.count(), 1u);
  EXPECT_EQ(s.remove_ms.count(), 1u);
  const double expected_mean =
      (s.put_ms.sum() + s.get_ms.sum() + s.update_ms.sum() +
       s.remove_ms.sum()) /
      4.0;
  EXPECT_NEAR(s.mean_op_ms(), expected_mean, 1e-9);
}

TEST(ClientStats, FailuresCounted) {
  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, 281);
  gcs::MultiCloudSession session(registry);
  SingleCloudClient client(session, "Aliyun");
  client.get("/missing");
  client.remove("/missing");
  EXPECT_EQ(client.stats_snapshot().failed_ops, 2u);
}

}  // namespace
}  // namespace hyrd::core
