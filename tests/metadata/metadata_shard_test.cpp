// Property and concurrency tests for the sharded metadata plane: the
// MetadataStore must be observationally equivalent to the retained
// LegacyMetadataStore on every read surface, byte-compatible on the wire,
// and invariant under shard count — sharding is a layout choice, not a
// semantic one.
#include "metadata/metadata_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "metadata/legacy_store.h"

namespace hyrd::meta {
namespace {

FileMeta make_meta(std::string path, std::uint64_t version = 1,
                   std::uint64_t size = 4096) {
  FileMeta m;
  m.path = std::move(path);
  m.size = size;
  m.version = version;
  m.crc = static_cast<std::uint32_t>(version * 2654435761u);
  return m;
}

std::string random_path(common::Xoshiro256& rng) {
  return "d" + std::to_string(rng() % 13) + "/f" + std::to_string(rng() % 97);
}

TEST(MetadataShard, MatchesLegacyUnderRandomChurn) {
  for (const std::size_t shards : {1u, 4u, 16u, 64u}) {
    MetadataStore store(shards);
    LegacyMetadataStore legacy;
    common::Xoshiro256 rng(0xC0FFEE ^ shards);

    for (int op = 0; op < 5000; ++op) {
      const std::string path = random_path(rng);
      const std::uint64_t roll = rng() % 100;
      if (roll < 60) {
        FileMeta m = make_meta(path, rng() % 8 + 1, rng() % 100000);
        store.upsert(m);
        legacy.upsert(std::move(m));
      } else if (roll < 80) {
        EXPECT_EQ(store.erase(path), legacy.erase(path)) << path;
      } else {
        const auto a = store.lookup(path);
        const auto b = legacy.lookup(path);
        ASSERT_EQ(a.has_value(), b.has_value()) << path;
        if (a.has_value()) {
          EXPECT_EQ(a->version, b->version);
          EXPECT_EQ(a->size, b->size);
          EXPECT_EQ(a->crc, b->crc);
        }
      }
    }

    EXPECT_EQ(store.file_count(), legacy.file_count());
    EXPECT_EQ(store.directories(), legacy.directories());
    EXPECT_EQ(store.all_paths(), legacy.all_paths());
    for (const auto& dir : legacy.directories()) {
      const auto a = store.files_in(dir);
      const auto b = legacy.files_in(dir);
      ASSERT_EQ(a.size(), b.size()) << dir;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].path, b[i].path);
        EXPECT_EQ(a[i].version, b[i].version);
      }
    }
  }
}

TEST(MetadataShard, SerializeDirectoryBytesInvariantUnderShardCount) {
  // The directory block is the replication unit shipped to providers; its
  // bytes are pinned across shard counts AND against the legacy encoder.
  LegacyMetadataStore legacy;
  std::vector<MetadataStore*> stores;
  MetadataStore s1(1), s4(4), s16(16), s64(64);
  for (MetadataStore* s : {&s1, &s4, &s16, &s64}) stores.push_back(s);

  common::Xoshiro256 rng(123);
  for (int i = 0; i < 400; ++i) {
    FileMeta m = make_meta(random_path(rng), rng() % 5 + 1, rng() % 9999);
    for (MetadataStore* s : stores) s->upsert(m);
    legacy.upsert(std::move(m));
  }

  for (const auto& dir : legacy.directories()) {
    const auto reference = legacy.serialize_directory(dir);
    for (MetadataStore* s : stores) {
      EXPECT_EQ(s->serialize_directory(dir), reference) << dir;
    }
  }
  // A directory nobody populated serializes identically too (empty block).
  EXPECT_EQ(s1.serialize_directory("ghost"), legacy.serialize_directory("ghost"));
}

TEST(MetadataShard, SerializeLoadRoundTripsAcrossShardCounts) {
  // Blocks written by a store with one shard count load into any other:
  // each record is routed to its shard again, and the result is byte-for-byte
  // re-serializable — determinism regardless of shard count.
  MetadataStore src(64);
  common::Xoshiro256 rng(77);
  for (int i = 0; i < 500; ++i) {
    src.upsert(make_meta(random_path(rng), rng() % 9 + 1));
  }

  MetadataStore dst(4);
  for (const auto& dir : src.directories()) {
    ASSERT_TRUE(dst.load_directory_block(src.serialize_directory(dir)).is_ok());
  }
  EXPECT_EQ(dst.all_paths(), src.all_paths());
  EXPECT_EQ(dst.file_count(), src.file_count());
  for (const auto& dir : src.directories()) {
    EXPECT_EQ(dst.serialize_directory(dir), src.serialize_directory(dir));
  }
}

TEST(MetadataShard, UpsertVersionedAssignsMonotonicVersions) {
  MetadataStore store(16);
  FileMeta m = make_meta("a/b", /*version=*/0);
  EXPECT_EQ(store.upsert_versioned(m), 1u);
  EXPECT_EQ(m.version, 1u);
  EXPECT_EQ(store.upsert_versioned(m), 2u);
  EXPECT_EQ(store.upsert_versioned(m), 3u);
  EXPECT_EQ(store.lookup("a/b")->version, 3u);
  store.erase("a/b");
  EXPECT_EQ(store.upsert_versioned(m), 1u);  // fresh file restarts at 1
}

TEST(MetadataShard, WriteOrderMutexIsStablePerPath) {
  MetadataStore store(16);
  std::mutex& a = store.write_order_mu("mail/0001");
  std::mutex& b = store.write_order_mu("mail/0001");
  EXPECT_EQ(&a, &b);
}

TEST(MetadataShard, ShardOccupancySumsToFileCount) {
  MetadataStore store(16);
  common::Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) store.upsert(make_meta(random_path(rng)));
  std::size_t dirs = 0, files = 0;
  for (const auto& occ : store.shard_occupancy()) {
    dirs += occ.directories;
    files += occ.files;
  }
  EXPECT_EQ(files, store.file_count());
  EXPECT_EQ(dirs, store.directories().size());
}

TEST(MetadataShard, RoutesDirectoriesByHighHashBits) {
  // Routing is balanced, and independent of the low hash bits that pick a
  // directory's home slot inside its shard's table: routing on those bits
  // would give each shard's directories one fixed low nibble and leave
  // 15/16 of every table's home slots unused.
  constexpr std::size_t kShards = 16;
  constexpr std::size_t kDirs = 100'000;
  MetadataStore store(kShards);
  const MetadataStore twin(kShards);
  std::set<std::uint64_t> shard0_low_bits;
  for (std::size_t i = 0; i < kDirs; ++i) {
    const std::string dir = "/mail/inbox/" + std::to_string(i);
    store.upsert(make_meta(dir + "/f"));
    const std::size_t shard = store.shard_of_dir(dir);
    ASSERT_EQ(shard, twin.shard_of_dir(dir)) << dir;
    if (shard == 0) shard0_low_bits.insert(common::stable_key_hash(dir) & 15);
  }
  const double fair = static_cast<double>(kDirs) / kShards;
  for (const auto& occ : store.shard_occupancy()) {
    EXPECT_NEAR(static_cast<double>(occ.directories), fair, 0.05 * fair);
  }
  EXPECT_EQ(shard0_low_bits.size(), 16u);
}

// Readers, writers, erasers, and block loads racing across every shard.
// The assertions are deliberately light — this test exists for TSan (CI
// runs the MetadataShard suites under TSan and ASan/UBSan); correctness
// of results is covered by the deterministic tests above.
TEST(MetadataShardStress, ConcurrentChurnAcrossShards) {
  MetadataStore store(16);
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  constexpr int kOpsPerThread = 4000;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> threads;

  // Seed blocks for the loader thread to replay concurrently.
  MetadataStore seed(1);
  for (int i = 0; i < 200; ++i) {
    seed.upsert(make_meta("d" + std::to_string(i % 13) + "/s" +
                          std::to_string(i)));
  }
  std::vector<common::Bytes> blocks;
  for (const auto& dir : seed.directories()) {
    blocks.push_back(seed.serialize_directory(dir));
  }

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      common::Xoshiro256 rng(1000 + w);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string path = random_path(rng);
        if (rng.chance(0.3)) {
          store.erase(path);
        } else if (rng.chance(0.5)) {
          FileMeta m = make_meta(path);
          store.upsert_versioned(m);
        } else {
          store.upsert(make_meta(path, rng() % 4 + 1));
        }
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      common::Xoshiro256 rng(2000 + r);
      std::uint64_t found = 0;
      while (!stop.load(std::memory_order_acquire)) {
        found += store.lookup(random_path(rng)).has_value() ? 1 : 0;
        if (rng.chance(0.01)) found += store.file_count();
        if (rng.chance(0.01)) found += store.files_in("d3").size();
      }
      sink.fetch_add(found);
    });
  }
  threads.emplace_back([&] {
    common::Xoshiro256 rng(3000);
    while (!stop.load(std::memory_order_acquire)) {
      const auto& block = blocks[rng() % blocks.size()];
      ASSERT_TRUE(store.load_directory_block(block).is_ok());
      sink.fetch_add(store.serialize_directory("d3").size());
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  // Post-churn sanity: every path the store lists is really present.
  for (const auto& path : store.all_paths()) {
    EXPECT_TRUE(store.lookup(path).has_value()) << path;
  }
}

}  // namespace
}  // namespace hyrd::meta
