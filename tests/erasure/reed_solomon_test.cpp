#include "erasure/reed_solomon.h"

#include <gtest/gtest.h>

#include <algorithm>

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

/// Runs reconstruct_into for `wanted` over the shards `present` holds,
/// writing into buffers pre-filled with 0xA5 so that a result relying on
/// zeroed output memory shows up as a mismatch.
common::Status rebuild(const ReedSolomon& rs,
                       const std::vector<std::optional<common::Bytes>>& present,
                       const std::vector<std::size_t>& wanted,
                       std::size_t out_size, std::vector<common::Bytes>& out) {
  std::vector<std::optional<common::ByteSpan>> views(present.size());
  for (std::size_t i = 0; i < present.size(); ++i) {
    if (present[i].has_value()) views[i] = common::ByteSpan(*present[i]);
  }
  out.assign(wanted.size(), common::Bytes(out_size, 0xA5));
  std::vector<common::MutByteSpan> dst(out.begin(), out.end());
  return rs.reconstruct_into(views, wanted, dst);
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

TEST(ReedSolomon, EncodeIntoOverwritesNonZeroParity) {
  // Encoding into caller buffers is a plan of the parity slots over the
  // data slots, applied per buffer; the buffers need no zero-fill: stale
  // bytes are overwritten.
  for (const auto& [k, m] : {std::pair<std::size_t, std::size_t>{2, 1},
                            {3, 1}, {4, 2}, {8, 4}}) {
    ReedSolomon rs(k, m);
    const auto data = make_shards(k, 1000, 40 + k);
    const auto want = rs.encode(data);
    ASSERT_TRUE(want.is_ok());
    std::vector<common::Bytes> parity(m, common::Bytes(1000, 0xA5));
    parity[0] = common::patterned(1000, 99);
    std::vector<std::optional<common::ByteSpan>> views(k + m);
    std::vector<std::size_t> parity_slots;
    for (std::size_t i = 0; i < k; ++i) views[i] = common::ByteSpan(data[i]);
    for (std::size_t p = 0; p < m; ++p) parity_slots.push_back(k + p);
    const auto plan = rs.plan(views, parity_slots);
    ASSERT_TRUE(plan.is_ok());
    for (std::size_t p = 0; p < m; ++p) {
      ASSERT_TRUE(plan.value().apply(p, 0, parity[p]).is_ok());
    }
    EXPECT_EQ(parity, want.value()) << "k=" << k << " m=" << m;
  }
}

TEST(ReedSolomon, ReconstructNeedsAtLeastK) {
  ReedSolomon rs(3, 2);
  std::vector<std::optional<common::Bytes>> shards(5);
  shards[0] = common::patterned(8, 0);
  shards[1] = common::patterned(8, 1);
  std::vector<common::Bytes> out;
  EXPECT_EQ(rebuild(rs, shards, {2}, 8, out).code(),
            common::StatusCode::kDataLoss);
}

TEST(ReedSolomon, ReconstructRejectsWrongSlotCount) {
  ReedSolomon rs(3, 2);
  std::vector<std::optional<common::Bytes>> shards(4);
  std::vector<common::Bytes> out;
  EXPECT_EQ(rebuild(rs, shards, {0}, 8, out).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(ReedSolomon, ReconstructRejectsMixedSizes) {
  ReedSolomon rs(2, 1);
  std::vector<std::optional<common::Bytes>> shards(3);
  shards[0] = common::patterned(8, 0);
  shards[1] = common::patterned(9, 1);
  shards[2] = common::patterned(8, 2);
  std::vector<common::Bytes> out;
  EXPECT_EQ(rebuild(rs, shards, {0}, 8, out).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(ReedSolomon, ReconstructIntoRejectsOversizedOutputAndBadSlot) {
  ReedSolomon rs(2, 1);
  std::vector<std::optional<common::Bytes>> shards(3);
  shards[1] = common::patterned(8, 1);
  shards[2] = common::patterned(8, 2);
  std::vector<common::Bytes> out;
  EXPECT_EQ(rebuild(rs, shards, {0}, 9, out).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(rebuild(rs, shards, {3}, 8, out).code(),
            common::StatusCode::kInvalidArgument);
}

TEST(ReedSolomon, ReconstructIntoComputesOnlyTheOutputPrefix) {
  // A shorter output gets the prefix of the slot; the survivors' tails
  // are never needed (a degraded read skips a tail slot's padding).
  ReedSolomon rs(3, 1);
  const auto data = make_shards(3, 64, 7);
  const auto parity = rs.encode(data);
  ASSERT_TRUE(parity.is_ok());
  std::vector<std::optional<common::Bytes>> shards = {
      std::nullopt, data[1], data[2], parity.value()[0]};
  std::vector<common::Bytes> out;
  ASSERT_TRUE(rebuild(rs, shards, {0}, 21, out).is_ok());
  EXPECT_EQ(out[0], common::Bytes(data[0].begin(), data[0].begin() + 21));
}

TEST(ReedSolomon, PlanApplyRejectsBadOutputAndColumnPastTheEnd) {
  ReedSolomon rs(2, 1);
  const auto data = make_shards(2, 64, 11);
  const auto parity = rs.encode(data);
  ASSERT_TRUE(parity.is_ok());
  const std::vector<std::optional<common::ByteSpan>> views = {
      std::nullopt, common::ByteSpan(data[1]),
      common::ByteSpan(parity.value()[0])};
  const std::vector<std::size_t> wanted = {0};
  const auto plan = rs.plan(views, wanted);
  ASSERT_TRUE(plan.is_ok());
  common::Bytes out(32, 0xA5);
  EXPECT_TRUE(plan.value().apply(0, 32, out).is_ok());
  EXPECT_EQ(out, common::Bytes(data[0].begin() + 32, data[0].end()));
  EXPECT_EQ(plan.value().apply(1, 0, out).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.value().apply(0, 33, out).code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(plan.value().apply(0, 65, common::MutByteSpan()).code(),
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

  // Every erasure pattern with at most m missing shards rebuilds every
  // slot, data and parity, missing or not, byte-equal to encode().
  std::vector<std::size_t> every(n);
  for (std::size_t i = 0; i < n; ++i) every[i] = i;
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (static_cast<std::size_t>(std::popcount(mask)) > m) continue;
    std::vector<std::optional<common::Bytes>> shards(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!(mask & (1u << i))) shards[i] = all[i];
    }
    std::vector<common::Bytes> out;
    ASSERT_TRUE(rebuild(rs, shards, every, 96, out).is_ok())
        << "mask=" << mask;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], all[i]) << "mask=" << mask << " shard=" << i;
    }

    // One plan applied column by column (40, 40 and 16 bytes) into
    // 0xA5-filled outputs equals the one-shot result.
    std::vector<std::optional<common::ByteSpan>> views(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (shards[i].has_value()) views[i] = common::ByteSpan(*shards[i]);
    }
    const auto plan = rs.plan(views, every);
    ASSERT_TRUE(plan.is_ok()) << "mask=" << mask;
    EXPECT_EQ(plan.value().shard_size(), 96u);
    std::vector<common::Bytes> columns(n, common::Bytes(96, 0xA5));
    for (std::size_t off = 0; off < 96; off += 40) {
      for (std::size_t j = 0; j < n; ++j) {
        const common::MutByteSpan dst(columns[j].data() + off,
                                      std::min<std::size_t>(40, 96 - off));
        ASSERT_TRUE(plan.value().apply(j, off, dst).is_ok());
      }
    }
    EXPECT_EQ(columns, out) << "mask=" << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ReedSolomonGeometryTest,
    ::testing::Values(RsGeometry{1, 1}, RsGeometry{2, 1}, RsGeometry{3, 1},
                      RsGeometry{3, 2}, RsGeometry{4, 2}, RsGeometry{5, 3},
                      RsGeometry{6, 3}, RsGeometry{8, 4}),
    [](const ::testing::TestParamInfo<RsGeometry>& geometry) {
      return std::string("k")
          .append(std::to_string(geometry.param.k))
          .append("m")
          .append(std::to_string(geometry.param.m));
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

    // Erase a random subset of size <= m and rebuild exactly that subset.
    std::vector<std::optional<common::Bytes>> shards(k + m);
    std::vector<std::size_t> erased;
    for (std::size_t i = 0; i < k + m; ++i) {
      if (erased.size() < m && rng.chance(0.3)) {
        erased.push_back(i);
        continue;
      }
      shards[i] = all[i];
    }
    std::vector<common::Bytes> out;
    ASSERT_TRUE(rebuild(rs, shards, erased, shard_size, out).is_ok());
    for (std::size_t j = 0; j < erased.size(); ++j) {
      EXPECT_EQ(out[j], all[erased[j]]);
    }
  }
}

}  // namespace
}  // namespace hyrd::erasure
