#include <gtest/gtest.h>

#include "cache/read_cache.h"

namespace hyrd::cache {
namespace {

common::Buffer filled(std::size_t n, std::uint8_t v) {
  common::MutableBuffer b(n);
  std::memset(b.data(), v, n);
  return std::move(b).freeze();
}

TEST(CacheReadCache, InsertLookupCountsHits) {
  ReadCache rc;
  rc.set_capacity(1024, 0.8);
  rc.insert("a", filled(16, 1));
  auto h1 = rc.lookup("a");
  ASSERT_TRUE(h1.has_value());
  EXPECT_EQ(h1->hits, 1u);
  EXPECT_EQ(h1->data.size(), 16u);
  EXPECT_EQ(h1->data.data()[0], 1);
  auto h2 = rc.lookup("a");
  ASSERT_TRUE(h2.has_value());
  EXPECT_EQ(h2->hits, 2u);
  EXPECT_FALSE(rc.lookup("missing").has_value());
  EXPECT_EQ(rc.bytes(), 16u);
}

TEST(CacheReadCache, ScanResistance) {
  // A promoted (2-touch) entry survives a one-touch scan that overflows
  // the whole budget: scan traffic washes through probation only.
  ReadCache rc;
  rc.set_capacity(64, 0.5);
  rc.insert("hot", filled(16, 7));
  ASSERT_TRUE(rc.lookup("hot").has_value());  // promoted to protected
  for (int i = 0; i < 32; ++i) {
    rc.insert(std::string("scan").append(std::to_string(i)), filled(16, 1));
  }
  EXPECT_TRUE(rc.lookup("hot").has_value());
  EXPECT_LE(rc.bytes(), 64u);
  EXPECT_GT(rc.evictions(), 0u);
}

TEST(CacheReadCache, ProtectedOverflowDemotesNotDrops) {
  ReadCache rc;
  rc.set_capacity(64, 0.5);  // protected budget: 32 bytes = 2 entries
  for (int i = 0; i < 3; ++i) {
    rc.insert(std::string("p").append(std::to_string(i)), filled(16, 1));
    ASSERT_TRUE(  // promote
        rc.lookup(std::string("p").append(std::to_string(i))).has_value());
  }
  // All three are still resident (one was demoted to probation, none
  // dropped: 48 bytes < 64 total).
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        rc.lookup(std::string("p").append(std::to_string(i))).has_value())
        << i;
  }
  EXPECT_LE(rc.bytes(), 64u);
}

TEST(CacheReadCache, ByteBoundHolds) {
  ReadCache rc;
  rc.set_capacity(100, 0.8);
  for (int i = 0; i < 50; ++i) {
    rc.insert(std::string("k").append(std::to_string(i)), filled(30, 2));
    ASSERT_LE(rc.bytes(), 100u);
  }
  EXPECT_LE(rc.entries(), 3u);
}

TEST(CacheReadCache, OversizedObjectIgnored) {
  ReadCache rc;
  rc.set_capacity(64, 0.8);
  rc.insert("big", filled(100, 3));
  EXPECT_EQ(rc.entries(), 0u);
  EXPECT_FALSE(rc.lookup("big").has_value());
}

TEST(CacheReadCache, EraseAndClear) {
  ReadCache rc;
  rc.set_capacity(1024, 0.8);
  rc.insert("a", filled(8, 1));
  rc.insert("b", filled(8, 2));
  EXPECT_TRUE(rc.erase("a"));
  EXPECT_FALSE(rc.erase("a"));
  EXPECT_EQ(rc.bytes(), 8u);
  rc.clear();
  EXPECT_EQ(rc.entries(), 0u);
  EXPECT_EQ(rc.bytes(), 0u);
}

TEST(CacheReadCache, ReinsertRefreshesPayload) {
  ReadCache rc;
  rc.set_capacity(1024, 0.8);
  rc.insert("a", filled(8, 1));
  rc.insert("a", filled(12, 9));
  auto h = rc.lookup("a");
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->data.size(), 12u);
  EXPECT_EQ(h->data.data()[0], 9);
  EXPECT_EQ(rc.bytes(), 12u);
}

}  // namespace
}  // namespace hyrd::cache
