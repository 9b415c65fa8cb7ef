// Robustness fuzzing (deterministic): deserializers consume bytes that
// came over the network from providers we do not control. Random mutations
// and truncations of valid payloads — and pure noise — must produce clean
// Status errors, never crashes, hangs, or huge allocations.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "metadata/file_meta.h"
#include "metadata/metadata_store.h"
#include "metadata/serializer.h"
#include "metadata/update_log.h"

namespace hyrd::meta {
namespace {

common::Bytes valid_block() {
  MetadataStore store;
  for (int i = 0; i < 5; ++i) {
    FileMeta m;
    m.path = "/dir/f" + std::to_string(i);
    m.size = 1000 + i;
    m.version = i;
    m.redundancy =
        i % 2 == 0 ? RedundancyKind::kReplicated : RedundancyKind::kErasure;
    m.locations = {{"Aliyun", "o" + std::to_string(i)},
                   {"WindowsAzure", "p" + std::to_string(i)}};
    m.fragment_crcs = {1u, 2u, 3u};
    store.upsert(m);
  }
  return store.serialize_directory("/dir");
}

TEST(FuzzRobustness, MetadataBlockSingleByteMutations) {
  const common::Bytes block = valid_block();
  for (std::size_t pos = 0; pos < block.size(); ++pos) {
    for (std::uint8_t flip : {0x01, 0x80, 0xFF}) {
      common::Bytes bad = block;
      bad[pos] ^= flip;
      MetadataStore store;
      // Must return (either status); must not crash or hang.
      (void)store.load_directory_block(bad);
    }
  }
}

TEST(FuzzRobustness, MetadataBlockTruncations) {
  const common::Bytes block = valid_block();
  for (std::size_t len = 0; len < block.size(); ++len) {
    MetadataStore store;
    auto st = store.load_directory_block(
        common::ByteSpan(block.data(), len));
    EXPECT_FALSE(st.is_ok()) << "truncation to " << len << " accepted";
  }
}

TEST(FuzzRobustness, MetadataBlockRandomNoise) {
  common::Xoshiro256 rng(251);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t len = rng.uniform_int(0, 300);
    common::Bytes noise(len);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
    MetadataStore store;
    (void)store.load_directory_block(noise);
    EXPECT_EQ(store.file_count(), 0u);
  }
}

TEST(FuzzRobustness, UpdateLogMutationsAndNoise) {
  UpdateLog log;
  log.append("P1", "c", "/a", "o1", LogAction::kPut);
  log.append("P2", "c", "/b", "o2", LogAction::kRemove);
  const common::Bytes snapshot = log.serialize();

  common::Xoshiro256 rng(257);
  for (int trial = 0; trial < 300; ++trial) {
    common::Bytes bad = snapshot;
    const std::size_t pos = rng.uniform_int(0, bad.size() - 1);
    bad[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
    UpdateLog restored;
    (void)restored.restore(bad);  // any status; no crash
  }
  for (std::size_t len = 0; len < snapshot.size(); ++len) {
    UpdateLog restored;
    EXPECT_FALSE(
        restored.restore(common::ByteSpan(snapshot.data(), len)).is_ok());
  }
}

TEST(FuzzRobustness, LengthPrefixBombRejected) {
  // A hostile length prefix must not trigger a giant allocation: the
  // reader bounds-checks against the actual payload size.
  Writer w;
  w.u32(0x48795244);          // block magic
  w.str("/dir");
  w.u32(0xFFFFFFFF);          // claims 4 billion records
  MetadataStore store;
  EXPECT_FALSE(store.load_directory_block(w.data()).is_ok());

  Writer w2;
  w2.u32(0xFFFFFFFFu);  // string length prefix far beyond the buffer
  Reader r(w2.data());
  EXPECT_FALSE(r.str().is_ok());
}

TEST(FuzzRobustness, FileMetaRandomNoise) {
  common::Xoshiro256 rng(269);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t len = rng.uniform_int(1, 200);
    common::Bytes noise(len);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng());
    Reader r(noise);
    (void)FileMeta::deserialize(r);
  }
}

}  // namespace
}  // namespace hyrd::meta
