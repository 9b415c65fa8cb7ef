// Silent-corruption recovery: per-fragment CRCs let the erasure read path
// pinpoint a corrupted fragment and reconstruct through it (the integrity
// property HAIL-style systems — cited by the paper — provide).
#include <gtest/gtest.h>

#include <optional>

#include "cloud/profiles.h"
#include "core/hyrd_client.h"
#include "core/racs_client.h"
#include "dist/erasure_scheme.h"

namespace hyrd::dist {
namespace {

class CorruptionTest : public ::testing::Test {
 protected:
  CorruptionTest() : scheme_("data", {.k = 3, .m = 1}) {
    cloud::install_standard_four(registry_, 131);
    session_ = std::make_unique<gcs::MultiCloudSession>(registry_);
    session_->ensure_container_everywhere("data");
    slots_ = {session_->index_of("Rackspace"), session_->index_of("Aliyun"),
              session_->index_of("WindowsAzure"),
              session_->index_of("AmazonS3")};
  }

  /// Flips the byte at `at` of the stored fragment (default: its middle).
  void corrupt_fragment(const meta::FileMeta& m, std::size_t slot,
                        std::optional<std::size_t> at = std::nullopt) {
    auto* provider = registry_.find(m.locations[slot].provider);
    auto current = provider->raw_store().get("data",
                                             m.locations[slot].object_name);
    ASSERT_TRUE(current.is_ok());
    common::Bytes bad = current.value().to_bytes();
    bad[at.value_or(bad.size() / 2)] ^= 0xFF;
    provider->raw_store().put("data", m.locations[slot].object_name, bad);
  }

  cloud::CloudRegistry registry_;
  std::unique_ptr<gcs::MultiCloudSession> session_;
  ErasureScheme scheme_;
  std::vector<std::size_t> slots_;
};

TEST_F(CorruptionTest, WriteRecordsPerFragmentDigests) {
  auto w = scheme_.write(*session_, "/f", common::patterned(3000, 1), slots_);
  ASSERT_TRUE(w.status.is_ok());
  ASSERT_EQ(w.meta.fragment_crcs.size(), 4u);
  for (std::uint32_t crc : w.meta.fragment_crcs) EXPECT_NE(crc, 0u);
}

TEST_F(CorruptionTest, CorruptDataFragmentIsReconstructedThrough) {
  const auto data = common::patterned(2 << 20, 2);
  auto w = scheme_.write(*session_, "/f", data, slots_);
  ASSERT_TRUE(w.status.is_ok());

  for (std::size_t slot = 0; slot < 3; ++slot) {
    auto fresh = scheme_.write(*session_, "/f" + std::to_string(slot), data,
                               slots_);
    corrupt_fragment(fresh.meta, slot);
    auto r = scheme_.read(*session_, fresh.meta);
    ASSERT_TRUE(r.status.is_ok()) << "slot " << slot;
    EXPECT_TRUE(r.degraded) << "slot " << slot;
    EXPECT_EQ(r.data, data) << "slot " << slot;
  }
}

TEST_F(CorruptionTest, FastestKExcludesCorruptDataFragment) {
  // First-k-of-n requests all four fragments; a corrupt data fragment must
  // not count toward k, so the read reconstructs from the other three.
  ErasureScheme fastest("data", {.k = 3, .m = 1});
  fastest.set_read_strategy(ErasureReadStrategy::kFastestK);
  const auto data = common::patterned(2 << 20, 8);
  for (std::size_t slot = 0; slot < 3; ++slot) {
    auto w = fastest.write(*session_, "/k" + std::to_string(slot), data,
                           slots_);
    ASSERT_TRUE(w.status.is_ok()) << "slot " << slot;
    corrupt_fragment(w.meta, slot);
    auto r = fastest.read(*session_, w.meta);
    ASSERT_TRUE(r.status.is_ok()) << "slot " << slot;
    EXPECT_TRUE(r.degraded) << "slot " << slot;
    EXPECT_EQ(r.data, data) << "slot " << slot;
  }
}

TEST_F(CorruptionTest, CorruptParityHarmlessOnNormalRead) {
  const auto data = common::patterned(1 << 20, 3);
  auto w = scheme_.write(*session_, "/f", data, slots_);
  corrupt_fragment(w.meta, 3);  // parity slot
  auto r = scheme_.read(*session_, w.meta);
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_FALSE(r.degraded);  // data fragments intact; parity never touched
  EXPECT_EQ(r.data, data);
}

TEST_F(CorruptionTest, CorruptionPlusOutageExceedsTolerance) {
  const auto data = common::patterned(1 << 20, 4);
  auto w = scheme_.write(*session_, "/f", data, slots_);
  corrupt_fragment(w.meta, 0);
  registry_.find(w.meta.locations[1].provider)->set_online(false);
  auto r = scheme_.read(*session_, w.meta);
  // One erasure (outage) + one corruption > m=1 tolerance.
  EXPECT_EQ(r.status.code(), common::StatusCode::kDataLoss);
}

TEST_F(CorruptionTest, RebuildRefusesCorruptSurvivors) {
  const auto data = common::patterned(1 << 20, 5);
  auto w = scheme_.write(*session_, "/f", data, slots_);
  corrupt_fragment(w.meta, 1);
  // Rebuilding slot 0's fragment must not silently use the corrupt slot 1;
  // with slot 1 discarded only 2 intact fragments + target remain => k=3
  // reachable (slots 2,3 + corrupt 1 discarded) -> only 2 present -> fails.
  auto rebuilt =
      scheme_.rebuild_fragments_for(*session_, w.meta,
                                    w.meta.locations[0].provider, nullptr);
  EXPECT_FALSE(rebuilt.is_ok());
}

TEST_F(CorruptionTest, CorruptPadByteOfTailFragmentIsRejected) {
  // 2998 bytes over k=3: shards of 1000 bytes, and the tail data slot
  // holds 998 object bytes plus 2 bytes of zero padding. A flipped pad
  // byte changes no object byte, but the fragment no longer matches what
  // was written (and its parity): the read must not trust it, and a
  // rebuild must not take it as a survivor. A check that only hashed the
  // object bytes and zero-extended the CRC would accept it.
  const auto data = common::patterned(2998, 9);
  auto w = scheme_.write(*session_, "/odd", data, slots_);
  ASSERT_TRUE(w.status.is_ok());
  ASSERT_EQ(w.meta.shard_size, 1000u);
  corrupt_fragment(w.meta, 2, 999);

  auto r = scheme_.read(*session_, w.meta);
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_TRUE(r.degraded);  // slot 2 failed its check; parity stood in
  EXPECT_EQ(r.data, data);

  // Rebuilding slot 0 needs slots 1-3; slot 2 is refused, so only two
  // intact survivors remain for k = 3.
  auto rebuilt = scheme_.rebuild_fragments_for(
      *session_, w.meta, w.meta.locations[0].provider, nullptr);
  EXPECT_EQ(rebuilt.status().code(), common::StatusCode::kDataLoss);
}

TEST_F(CorruptionTest, HyRDEndToEndSurvivesFragmentCorruption) {
  cloud::CloudRegistry reg;
  cloud::install_standard_four(reg, 137);
  gcs::MultiCloudSession session(reg);
  core::HyRDClient client(session);

  const auto data = common::patterned(4 << 20, 6);
  auto w = client.put("/big", data);
  ASSERT_TRUE(w.status.is_ok());

  // Corrupt the first data fragment directly in the provider's store.
  auto* provider = reg.find(w.meta.locations[0].provider);
  auto frag = provider->raw_store().get("hyrd-data",
                                        w.meta.locations[0].object_name);
  ASSERT_TRUE(frag.is_ok());
  common::Bytes bad = frag.value().to_bytes();
  bad[0] ^= 0x01;
  provider->raw_store().put("hyrd-data", w.meta.locations[0].object_name,
                            bad);

  auto r = client.get("/big");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.data, data);
}

TEST_F(CorruptionTest, FragmentCrcsSerializeInMetadataBlocks) {
  meta::MetadataStore store;
  auto w = scheme_.write(*session_, "/d/f", common::patterned(5000, 7),
                         slots_);
  store.upsert(w.meta);
  const auto block = store.serialize_directory("/d");
  meta::MetadataStore other;
  ASSERT_TRUE(other.load_directory_block(block).is_ok());
  EXPECT_EQ(other.lookup("/d/f")->fragment_crcs, w.meta.fragment_crcs);
}

}  // namespace
}  // namespace hyrd::dist
