#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/copy_meter.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "erasure/striper.h"

namespace hyrd::erasure {
namespace {

// ---------- Striper ----------

/// The encoded shards as read-path slots, with the `missing` ones absent.
std::vector<std::optional<common::Buffer>> slots_of(
    const StripeSet& set, std::initializer_list<std::size_t> missing = {}) {
  std::vector<std::optional<common::Buffer>> out(set.shards.begin(),
                                                 set.shards.end());
  for (std::size_t i : missing) out[i].reset();
  return out;
}

class StriperSizeTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StriperSizeTest, EncodeDecodeRoundTrip) {
  const std::uint64_t size = GetParam();
  Striper striper({.k = 3, .m = 1});
  const common::Bytes object = common::patterned(size, size * 31 + 7);
  const StripeSet set = striper.encode(object);
  EXPECT_EQ(set.object_size, size);
  EXPECT_EQ(set.shards.size(), 4u);
  auto decoded =
      striper.assemble(set.object_size, set.object_crc, slots_of(set));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), object);
}

TEST_P(StriperSizeTest, DegradedDecodeFromAnyKSurvivors) {
  const std::uint64_t size = GetParam();
  Striper striper({.k = 3, .m = 1});
  const common::Bytes object = common::patterned(size, size + 1);
  const StripeSet set = striper.encode(object);

  for (std::size_t missing = 0; missing < 4; ++missing) {
    auto decoded = striper.assemble(set.object_size, set.object_crc,
                                    slots_of(set, {missing}));
    ASSERT_TRUE(decoded.is_ok()) << "missing=" << missing;
    EXPECT_EQ(decoded.value(), object);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, StriperSizeTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 100, 1023, 1024,
                                           1025, 4096, 65536, 1 << 20,
                                           (1 << 20) + 1, 3u << 20),
                         [](const auto& size) {
                           return "size" + std::to_string(size.param);
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
  auto decoded =
      striper.assemble(set.object_size, set.object_crc, slots_of(set));
  EXPECT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), common::StatusCode::kDataLoss);
}

TEST(Striper, DegradedDecodeGeometryMismatchRejected) {
  // Fragments of a (2,1) stripe handed to a (3,1) striper: wrong slot count.
  Striper striper({.k = 3, .m = 1});
  const StripeSet set = Striper({.k = 2, .m = 1}).encode(common::patterned(10, 1));
  auto r = striper.assemble(set.object_size, set.object_crc,
                            slots_of(set, {0}));
  EXPECT_EQ(r.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(Striper, RsGeometryRoundTrip) {
  Striper striper({.k = 5, .m = 3});
  const common::Bytes object = common::patterned(12345, 3);
  const StripeSet set = striper.encode(object);
  ASSERT_EQ(set.shards.size(), 8u);

  // Lose three shards (the tolerance limit).
  auto decoded = striper.assemble(set.object_size, set.object_crc,
                                  slots_of(set, {1, 4, 7}));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), object);
}

TEST(Striper, AssembleOfArenaSlicesCopiesNothing) {
  // Full data shards are slices of the encoded object, so an object whose
  // size is a multiple of k reassembles by refbump. A padded tail shard
  // lives in the writer's side arena, so such an object is gathered once.
  Striper striper({.k = 3, .m = 1});
  const auto object = common::Buffer::from(common::patterned(9999, 21));
  const StripeSet set = striper.encode(object);
  common::reset_copied_bytes();
  auto decoded =
      striper.assemble(set.object_size, set.object_crc, slots_of(set));
  EXPECT_EQ(common::copied_bytes(), 0u);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_TRUE(decoded.value().same_block(object));
  EXPECT_EQ(decoded.value(), object);

  const auto padded = common::Buffer::from(common::patterned(10000, 21));
  const StripeSet tail = striper.encode(padded);
  EXPECT_TRUE(tail.shards[0].same_block(padded));
  EXPECT_FALSE(tail.shards[2].same_block(padded));
  common::reset_copied_bytes();
  decoded = striper.assemble(tail.object_size, tail.object_crc, slots_of(tail));
  EXPECT_EQ(common::copied_bytes(), 10000u);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), padded);
}

// The encoder hashes each byte once and derives the object CRC and the
// padded shards' CRCs by combination; each must equal a direct CRC over
// the object and over the shard as stored, on and off the pool.
TEST(ErasureStripeCrcTest, CombinedCrcsMatchDirectComputation) {
  common::ThreadPool pool(3);
  for (const StripeGeometry geom : {StripeGeometry{.k = 2, .m = 1},
                                    StripeGeometry{.k = 4, .m = 2}}) {
    const Striper striper(geom);
    const std::uint64_t k = geom.k;
    for (const std::uint64_t size :
         {std::uint64_t{0}, std::uint64_t{1}, k - 1, k, 4096 * k,
          4096 * k + 1, std::uint64_t{1 << 20} + 1, std::uint64_t{8 << 20}}) {
      const auto object =
          common::Buffer::from(common::patterned(size, size + k));
      for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                    &pool}) {
        const StripeSet set = striper.encode(object, p);
        EXPECT_EQ(set.object_crc, common::crc32c(object)) << size;
        ASSERT_EQ(set.shards.size(), geom.total()) << size;
        ASSERT_EQ(set.shard_crcs.size(), geom.total()) << size;
        for (std::size_t i = 0; i < geom.total(); ++i) {
          EXPECT_EQ(set.shards[i].size(), set.shard_size) << size;
          EXPECT_EQ(set.shard_crcs[i], common::crc32c(set.shards[i]))
              << size << " slot " << i;
        }
      }
    }
  }
}

TEST(Striper, CheckVerifiesPaddingAndHandsBackDataCrcs) {
  // A shard passes only if its bytes, padding included, match the recorded
  // CRC; an intact data shard's object-byte CRC is handed back for
  // assemble(), and a shard without a recorded digest passes unchecked.
  common::ThreadPool pool(3);
  const Striper striper({.k = 2, .m = 1});
  const std::uint64_t size = 2 * Striper::kColumn + 3;  // slot 1 is padded
  const auto object = common::Buffer::from(common::patterned(size, 25));
  const StripeSet set = striper.encode(object);
  const std::vector<std::size_t> slots = {0, 1, 2};
  for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                &pool}) {
    std::vector<common::Bytes> frags;
    for (const auto& s : set.shards) frags.push_back(s.to_bytes());
    frags[1].back() ^= 1;  // a pad byte
    const std::vector<common::ByteSpan> views(frags.begin(), frags.end());
    std::vector<std::optional<std::uint32_t>> data_crcs(2);
    const auto verdicts =
        striper.check(size, set.shard_crcs, slots, views, data_crcs, p);
    EXPECT_EQ(verdicts, (std::vector<bool>{true, false, true}));
    EXPECT_EQ(data_crcs[0],
              common::crc32c(object.span().first(set.shard_size)));
    EXPECT_FALSE(data_crcs[1].has_value());

    std::vector<std::uint32_t> unknown = set.shard_crcs;
    unknown[1] = 0;
    EXPECT_EQ(striper.check(size, unknown, slots, views, data_crcs, p),
              (std::vector<bool>{true, true, true}));
  }
}

TEST(Striper, DegradedAssembleCopiesOnlyPresentDataBytes) {
  // 10000 bytes over k=3: shards of 3334, the tail slot holds 3332 object
  // bytes. With slot 1 lost, slots 0 and 2 are copied (their object bytes
  // only) and slot 1 is reconstructed in place: no survivor is copied to
  // be decoded.
  Striper striper({.k = 3, .m = 1});
  const common::Bytes object = common::patterned(10000, 22);
  const StripeSet set = striper.encode(object);
  common::reset_copied_bytes();
  auto decoded = striper.assemble(set.object_size, set.object_crc,
                                  slots_of(set, {1}));
  EXPECT_EQ(common::copied_bytes(), 3334u + 3332u);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), object);
}

TEST(Striper, ColumnParallelAssembleAndRebuildMatchSerial) {
  // Shards spanning several kColumn columns, with a partial last column
  // and a tail slot whose object bytes end mid-column.
  common::ThreadPool pool(3);
  Striper striper({.k = 3, .m = 2});
  const std::uint64_t size = 3 * (2 * Striper::kColumn + 1000) - 7;
  const common::Bytes object = common::patterned(size, 24);
  const StripeSet set = striper.encode(object);
  for (const auto& lost : {std::vector<std::size_t>{0, 2},
                           std::vector<std::size_t>{1, 4},
                           std::vector<std::size_t>{3, 4}}) {
    auto slots = slots_of(set);
    for (std::size_t i : lost) slots[i].reset();
    auto decoded =
        striper.assemble(set.object_size, set.object_crc, slots, {}, &pool);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value(), object);
    for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                  &pool}) {
      auto rebuilt = striper.rebuild(slots, lost, p);
      ASSERT_TRUE(rebuilt.is_ok());
      for (std::size_t j = 0; j < lost.size(); ++j) {
        EXPECT_EQ(rebuilt.value()[j], set.shards[lost[j]]) << "slot " << lost[j];
      }
    }
  }
  // Three slots lost exceed m = 2.
  auto slots = slots_of(set, {0, 1, 2});
  EXPECT_EQ(striper.rebuild(slots, std::vector<std::size_t>{0}, &pool)
                .status()
                .code(),
            common::StatusCode::kDataLoss);
}

TEST(Striper, KnownDataCrcsAreFoldedNotRehashed) {
  // A caller-supplied data CRC replaces hashing that slot, so a wrong one
  // must fail the object check; right ones pass.
  Striper striper({.k = 2, .m = 1});
  const common::Bytes object = common::patterned(1001, 23);
  const StripeSet set = striper.encode(object);
  std::vector<std::optional<std::uint32_t>> crcs = {
      common::crc32c(common::ByteSpan(object).first(501)),
      common::crc32c(common::ByteSpan(object).subspan(501))};
  EXPECT_TRUE(
      striper.assemble(set.object_size, set.object_crc, slots_of(set), crcs)
          .is_ok());
  crcs[1] = *crcs[1] ^ 1u;
  EXPECT_EQ(
      striper.assemble(set.object_size, set.object_crc, slots_of(set), crcs)
          .status()
          .code(),
      common::StatusCode::kDataLoss);
  // A CRC for a missing slot is ignored: reconstructed bytes are hashed.
  EXPECT_TRUE(striper
                  .assemble(set.object_size, set.object_crc,
                            slots_of(set, {1}), crcs)
                  .is_ok());
}

}  // namespace
}  // namespace hyrd::erasure
