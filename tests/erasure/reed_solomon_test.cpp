#include "erasure/reed_solomon.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hyrd::erasure {
namespace {

std::vector<common::Bytes> make_shards(std::size_t k, std::size_t shard_size,
                                       std::uint64_t seed) {
  std::vector<common::Bytes> shards;
  shards.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    shards.push_back(common::patterned(shard_size, seed + i));
  }
  return shards;
}

TEST(ReedSolomon, EncodeRejectsWrongShardCount) {
  ReedSolomon rs(3, 1);
  auto shards = make_shards(2, 16, 0);
  EXPECT_FALSE(rs.encode(shards).is_ok());
}

TEST(ReedSolomon, EncodeRejectsUnequalShardSizes) {
  ReedSolomon rs(2, 1);
  std::vector<common::Bytes> shards = {common::patterned(16, 0),
                                       common::patterned(17, 1)};
  EXPECT_FALSE(rs.encode(shards).is_ok());
}

TEST(ReedSolomon, VerifyAcceptsFreshEncode) {
  ReedSolomon rs(4, 2);
  auto data = make_shards(4, 128, 5);
  auto parity = rs.encode(data);
  ASSERT_TRUE(parity.is_ok());
  auto all = data;
  for (auto& p : parity.value()) all.push_back(p);
  EXPECT_TRUE(rs.verify(all));
}

TEST(ReedSolomon, VerifyRejectsCorruption) {
  ReedSolomon rs(4, 2);
  auto data = make_shards(4, 128, 5);
  auto parity = rs.encode(data);
  ASSERT_TRUE(parity.is_ok());
  auto all = data;
  for (auto& p : parity.value()) all.push_back(p);
  all[2][64] ^= 0xFF;
  EXPECT_FALSE(rs.verify(all));
}

TEST(ReedSolomon, ReconstructNeedsAtLeastK) {
  ReedSolomon rs(3, 2);
  std::vector<std::optional<common::Bytes>> shards(5);
  shards[0] = common::patterned(8, 0);
  shards[1] = common::patterned(8, 1);
  auto st = rs.reconstruct(shards);
  EXPECT_EQ(st.code(), common::StatusCode::kDataLoss);
}

TEST(ReedSolomon, ReconstructRejectsWrongSlotCount) {
  ReedSolomon rs(3, 2);
  std::vector<std::optional<common::Bytes>> shards(4);
  EXPECT_EQ(rs.reconstruct(shards).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(ReedSolomon, ReconstructRejectsMixedSizes) {
  ReedSolomon rs(2, 1);
  std::vector<std::optional<common::Bytes>> shards(3);
  shards[0] = common::patterned(8, 0);
  shards[1] = common::patterned(9, 1);
  shards[2] = common::patterned(8, 2);
  EXPECT_EQ(rs.reconstruct(shards).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(ReedSolomon, ParityDeltaMatchesReencode) {
  ReedSolomon rs(3, 2);
  auto data = make_shards(3, 64, 9);
  auto parity = rs.encode(data);
  ASSERT_TRUE(parity.is_ok());

  // Mutate data shard 1 and compute deltas.
  common::Bytes new_shard = common::patterned(64, 777);
  auto deltas = rs.parity_delta(1, data[1], new_shard);
  ASSERT_TRUE(deltas.is_ok());

  auto patched = parity.value();
  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t i = 0; i < 64; ++i) {
      patched[p][i] ^= deltas.value()[p][i];
    }
  }

  data[1] = new_shard;
  auto expected = rs.encode(data);
  ASSERT_TRUE(expected.is_ok());
  EXPECT_EQ(patched, expected.value());
}

TEST(ReedSolomon, SingleParityIsXorOfData) {
  // RAID5 (the paper's case study) runs as RS(k, 1): the all-ones parity
  // row makes the parity the XOR of the data shards, and the RAID5
  // small-update delta old ^ new.
  for (std::size_t k : {2u, 3u, 5u}) {
    ReedSolomon rs(k, 1);
    auto data = make_shards(k, 48, 10 * k);
    auto parity = rs.encode(data);
    ASSERT_TRUE(parity.is_ok());
    ASSERT_EQ(parity.value().size(), 1u);
    common::Bytes x(48, 0);
    for (const auto& d : data) {
      for (std::size_t i = 0; i < x.size(); ++i) x[i] ^= d[i];
    }
    EXPECT_EQ(parity.value()[0], x) << "k=" << k;

    const common::Bytes new_shard = common::patterned(48, 999);
    auto deltas = rs.parity_delta(k - 1, data[k - 1], new_shard);
    ASSERT_TRUE(deltas.is_ok());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(deltas.value()[0][i], data[k - 1][i] ^ new_shard[i])
          << "k=" << k << " byte=" << i;
    }
  }
}

TEST(ReedSolomon, ParityDeltaRejectsBadIndex) {
  ReedSolomon rs(3, 1);
  common::Bytes a = common::patterned(8, 0);
  EXPECT_FALSE(rs.parity_delta(3, a, a).is_ok());
}

struct RsGeometry {
  std::size_t k;
  std::size_t m;
};

class ReedSolomonGeometryTest : public ::testing::TestWithParam<RsGeometry> {};

TEST_P(ReedSolomonGeometryTest, AnyKOfNReconstructsAllErasurePatterns) {
  const auto [k, m] = GetParam();
  ReedSolomon rs(k, m);
  const std::size_t n = k + m;
  const auto data = make_shards(k, 96, 1000 + k * 10 + m);
  auto parity = rs.encode(data);
  ASSERT_TRUE(parity.is_ok());
  std::vector<common::Bytes> all = data;
  for (auto& p : parity.value()) all.push_back(p);

  // Every erasure pattern with at most m missing shards must reconstruct.
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (static_cast<std::size_t>(std::popcount(mask)) > m) continue;
    std::vector<std::optional<common::Bytes>> shards(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!(mask & (1u << i))) shards[i] = all[i];
    }
    ASSERT_TRUE(rs.reconstruct(shards).is_ok()) << "mask=" << mask;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(*shards[i], all[i]) << "mask=" << mask << " shard=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ReedSolomonGeometryTest,
    ::testing::Values(RsGeometry{1, 1}, RsGeometry{2, 1}, RsGeometry{3, 1},
                      RsGeometry{3, 2}, RsGeometry{4, 2}, RsGeometry{5, 3},
                      RsGeometry{6, 3}, RsGeometry{8, 4}),
    [](const ::testing::TestParamInfo<RsGeometry>& geometry) {
      return "k" + std::to_string(geometry.param.k) + "m" +
             std::to_string(geometry.param.m);
    });

TEST(ReedSolomon, RandomizedRoundTrips) {
  common::Xoshiro256 rng(4242);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t k = rng.uniform_int(1, 8);
    const std::size_t m = rng.uniform_int(1, 4);
    const std::size_t shard_size = rng.uniform_int(1, 512);
    ReedSolomon rs(k, m);
    auto data = make_shards(k, shard_size, rng());
    auto parity = rs.encode(data);
    ASSERT_TRUE(parity.is_ok());
    std::vector<common::Bytes> all = data;
    for (auto& p : parity.value()) all.push_back(p);

    // Erase a random subset of size <= m.
    std::vector<std::optional<common::Bytes>> shards(k + m);
    std::size_t erased = 0;
    for (std::size_t i = 0; i < k + m; ++i) {
      if (erased < m && rng.chance(0.3)) {
        ++erased;
        continue;
      }
      shards[i] = all[i];
    }
    ASSERT_TRUE(rs.reconstruct(shards).is_ok());
    for (std::size_t i = 0; i < k + m; ++i) EXPECT_EQ(*shards[i], all[i]);
  }
}

}  // namespace
}  // namespace hyrd::erasure
