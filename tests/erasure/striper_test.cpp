#include <gtest/gtest.h>

#include "common/rng.h"
#include "erasure/striper.h"

namespace hyrd::erasure {
namespace {

// ---------- Striper ----------

class StriperSizeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StriperSizeTest, EncodeDecodeRoundTrip) {
  const std::uint64_t size = GetParam();
  Striper striper({.k = 3, .m = 1});
  const common::Bytes object = common::patterned(size, size * 31 + 7);
  const StripeSet set = striper.encode(object);
  EXPECT_EQ(set.object_size, size);
  EXPECT_EQ(set.shards.size(), 4u);
  auto decoded = striper.decode(set);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), object);
}

TEST_P(StriperSizeTest, DegradedDecodeFromAnyKSurvivors) {
  const std::uint64_t size = GetParam();
  Striper striper({.k = 3, .m = 1});
  const common::Bytes object = common::patterned(size, size + 1);
  const StripeSet set = striper.encode(object);

  for (std::size_t missing = 0; missing < 4; ++missing) {
    std::vector<std::optional<common::Bytes>> shards(4);
    for (std::size_t i = 0; i < 4; ++i) {
      if (i != missing) shards[i] = set.shards[i].to_bytes();
    }
    auto decoded = striper.decode_degraded(set.geometry, set.object_size,
                                           set.object_crc, std::move(shards));
    ASSERT_TRUE(decoded.is_ok()) << "missing=" << missing;
    EXPECT_EQ(decoded.value(), object);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StriperSizeTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 100, 1023, 1024,
                                           1025, 4096, 65536, 1 << 20,
                                           (1 << 20) + 1, 3u << 20),
                         [](const auto& info) {
                           return "size" + std::to_string(info.param);
                         });

TEST(Striper, ShardSizeIsCeilDivision) {
  Striper striper({.k = 3, .m = 1});
  EXPECT_EQ(striper.shard_size_for(9), 3u);
  EXPECT_EQ(striper.shard_size_for(10), 4u);
  EXPECT_EQ(striper.shard_size_for(0), 1u);  // empty objects get 1-byte shards
}

TEST(Striper, ExpansionFactor) {
  EXPECT_DOUBLE_EQ((StripeGeometry{.k = 3, .m = 1}).expansion(), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ((StripeGeometry{.k = 4, .m = 2}).expansion(), 1.5);
}

TEST(Striper, DecodeDetectsCorruptObject) {
  Striper striper({.k = 2, .m = 1});
  const common::Bytes object = common::patterned(100, 8);
  StripeSet set = striper.encode(object);
  common::Bytes corrupt = set.shards[0].to_bytes();
  corrupt[5] ^= 0xFF;
  set.shards[0] = common::Buffer::from(std::move(corrupt));
  auto decoded = striper.decode(set);
  EXPECT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), common::StatusCode::kDataLoss);
}

TEST(Striper, DegradedDecodeGeometryMismatchRejected) {
  Striper striper({.k = 3, .m = 1});
  auto r = striper.decode_degraded({.k = 2, .m = 1}, 10, 0, {});
  EXPECT_FALSE(r.is_ok());
}

TEST(Striper, RsGeometryRoundTrip) {
  Striper striper({.k = 5, .m = 3});
  const common::Bytes object = common::patterned(12345, 3);
  const StripeSet set = striper.encode(object);
  ASSERT_EQ(set.shards.size(), 8u);

  // Lose three shards (the tolerance limit).
  std::vector<std::optional<common::Bytes>> shards(8);
  for (std::size_t i = 0; i < 8; ++i) {
    if (i != 1 && i != 4 && i != 7) shards[i] = set.shards[i].to_bytes();
  }
  auto decoded = striper.decode_degraded(set.geometry, set.object_size,
                                         set.object_crc, std::move(shards));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), object);
}

}  // namespace
}  // namespace hyrd::erasure
