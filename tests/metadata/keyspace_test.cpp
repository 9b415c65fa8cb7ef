#include "metadata/keyspace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/robin_hood.h"

namespace hyrd::meta {
namespace {

std::vector<std::string> sample_dirs(std::size_t n) {
  std::vector<std::string> dirs;
  dirs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    dirs.push_back("/mail/inbox/" + std::to_string(i));
  }
  return dirs;
}

TEST(MetadataShardKeyspace, RoutingIsDeterministicAcrossInstances) {
  const Keyspace a(16);
  const Keyspace b(16);
  for (const auto& dir : sample_dirs(500)) {
    EXPECT_EQ(a.shard_of_dir(dir), b.shard_of_dir(dir)) << dir;
  }
}

TEST(MetadataShardKeyspace, EveryShardOwnsSomeKeys) {
  const Keyspace ks(16);
  std::set<std::size_t> hit;
  for (const auto& dir : sample_dirs(2000)) hit.insert(ks.shard_of_dir(dir));
  EXPECT_EQ(hit.size(), 16u);
}

TEST(MetadataShardKeyspace, ShardOfHashStaysInRange) {
  const Keyspace ks(7);  // non-power-of-two on purpose
  common::Xoshiro256 rng(99);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(ks.shard_of_hash(rng()), 7u);
  }
  // Ring extremes: below the first point and past the last point (wrap).
  EXPECT_LT(ks.shard_of_hash(0), 7u);
  EXPECT_LT(ks.shard_of_hash(~std::uint64_t{0}), 7u);
}

TEST(MetadataShardKeyspace, LutRoutesMatchBinarySearchOracle) {
  // The radix-LUT fast path must agree with a from-scratch successor
  // search over the same deterministic vnode set.
  const std::size_t shards = 16;
  const Keyspace ks(shards);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring;
  for (std::size_t s = 0; s < shards; ++s) {
    common::SplitMix64 gen(0x6b657973'70616365ull ^ (s + 1));
    for (std::size_t v = 0; v < Keyspace::kDefaultVnodes; ++v) {
      ring.emplace_back(gen.next(), static_cast<std::uint32_t>(s));
    }
  }
  std::sort(ring.begin(), ring.end());
  const auto oracle = [&](std::uint64_t point) -> std::size_t {
    for (const auto& [where, shard] : ring) {
      if (where >= point) return shard;
    }
    return ring.front().second;  // wrap
  };
  common::Xoshiro256 rng(7);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t point = rng();
    EXPECT_EQ(ks.shard_of_hash(point), oracle(point)) << point;
  }
  // Exact boundary points route to themselves (successor is inclusive).
  for (std::size_t i = 0; i < ring.size(); i += 37) {
    EXPECT_EQ(ks.shard_of_hash(ring[i].first), oracle(ring[i].first));
  }
}

TEST(MetadataShardKeyspace, OwnershipSumsToOneAndIsRoughlyBalanced) {
  const Keyspace ks(16);
  const auto own = ks.ownership();
  ASSERT_EQ(own.size(), 16u);
  double total = 0.0;
  for (const double frac : own) {
    total += frac;
    EXPECT_GT(frac, 0.0);
    // 64 vnodes/shard keeps the imbalance well under 3x of fair share.
    EXPECT_LT(frac, 3.0 / 16.0);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MetadataShardKeyspace, MovedFractionIsZeroForIdenticalKeyspaces) {
  const Keyspace a(16);
  const Keyspace b(16);
  EXPECT_DOUBLE_EQ(Keyspace::moved_fraction(a, b), 0.0);
}

TEST(MetadataShardKeyspace, GrowthMovesOnlyTheNewShardsArcs) {
  // Consistent hashing's defining property: growing 16 -> 17 shards
  // relocates only keys the new shard claims (~1/17 of the space), and
  // every relocated directory lands on the new shard.
  const Keyspace before(16);
  const Keyspace after(17);
  const double moved = Keyspace::moved_fraction(before, after);
  EXPECT_GT(moved, 0.0);
  EXPECT_LT(moved, 2.5 / 17.0);  // near 1/17, generous bound

  for (const auto& dir : sample_dirs(2000)) {
    const std::size_t from = before.shard_of_dir(dir);
    const std::size_t to = after.shard_of_dir(dir);
    if (from != to) EXPECT_EQ(to, 16u) << dir;  // only into the new shard
  }
}

TEST(MetadataShardKeyspace, PathRoutesViaItsDirectory) {
  const Keyspace ks(16);
  EXPECT_EQ(ks.shard_of_path("/mail/inbox/0001"), ks.shard_of_dir("/mail/inbox"));
  EXPECT_EQ(ks.shard_of_path("rootfile"), ks.shard_of_dir("/"));
  EXPECT_EQ(ks.shard_of_path("/toplevel"), ks.shard_of_dir("/"));
}

TEST(MetadataShardKeyspace, StableKeyHashNeverReturnsZero) {
  // 0 is the shard table's empty sentinel; the hash must avoid it.
  EXPECT_NE(common::stable_key_hash(""), 0u);
  EXPECT_NE(common::stable_key_hash("/"), 0u);
  common::Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(common::stable_key_hash("k" + std::to_string(rng())), 0u);
  }
}

}  // namespace
}  // namespace hyrd::meta
