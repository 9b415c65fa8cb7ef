#include "core/dedup.h"

#include <gtest/gtest.h>

#include "cloud/profiles.h"
#include "core/hyrd_client.h"

namespace hyrd::core {
namespace {

// ---------- DedupIndex unit tests ----------

meta::FileMeta meta_for(const std::string& path) {
  meta::FileMeta m;
  m.path = path;
  m.size = 100;
  m.locations = {{"Aliyun", "cas.r0"}, {"WindowsAzure", "cas.r1"}};
  return m;
}

TEST(DedupIndex, FindUnknownDigestIsEmpty) {
  DedupIndex index;
  EXPECT_FALSE(index.find(common::Sha256::digest({})).has_value());
}

TEST(DedupIndex, CanonicalThenAlias) {
  DedupIndex index;
  const auto digest = common::Sha256::digest(common::bytes_of("x"));
  index.add_canonical(digest, meta_for("/a"));
  index.add_alias(digest, "/b", 100);

  ASSERT_TRUE(index.find(digest).has_value());
  EXPECT_EQ(index.ref_count("/a"), 2u);
  EXPECT_EQ(index.ref_count("/b"), 2u);
  EXPECT_TRUE(index.is_shared("/a"));

  const auto stats = index.stats();
  EXPECT_EQ(stats.unique_files, 1u);
  EXPECT_EQ(stats.alias_files, 1u);
  EXPECT_EQ(stats.bytes_deduplicated, 100u);
}

TEST(DedupIndex, UnlinkReturnsTrueOnlyOnLastReference) {
  DedupIndex index;
  const auto digest = common::Sha256::digest(common::bytes_of("x"));
  index.add_canonical(digest, meta_for("/a"));
  index.add_alias(digest, "/b", 100);

  EXPECT_FALSE(index.unlink("/a"));  // /b still references
  EXPECT_TRUE(index.unlink("/b"));   // last one
  EXPECT_FALSE(index.find(digest).has_value());
}

TEST(DedupIndex, UnlinkUntrackedPathOwnsFragments) {
  DedupIndex index;
  EXPECT_TRUE(index.unlink("/never-seen"));
}

TEST(DedupIndex, ClearResets) {
  DedupIndex index;
  index.add_canonical(common::Sha256::digest(common::bytes_of("x")),
                      meta_for("/a"));
  index.clear();
  EXPECT_EQ(index.stats().unique_files, 0u);
}

// ---------- HyRD integration ----------

class DedupHyRDTest : public ::testing::Test {
 protected:
  DedupHyRDTest() {
    cloud::install_standard_four(registry_, 71);
    session_ = std::make_unique<gcs::MultiCloudSession>(registry_);
    HyRDConfig config;
    config.dedup_enabled = true;
    client_ = std::make_unique<HyRDClient>(*session_, config);
  }

  std::uint64_t fleet_bytes_written() {
    std::uint64_t total = 0;
    for (const auto& p : registry_.all()) {
      total += p->counters().bytes_written;
    }
    return total;
  }

  cloud::CloudRegistry registry_;
  std::unique_ptr<gcs::MultiCloudSession> session_;
  std::unique_ptr<HyRDClient> client_;
};

TEST_F(DedupHyRDTest, DuplicatePutMovesNoData) {
  const auto data = common::patterned(500 * 1024, 1);
  ASSERT_TRUE(client_->put("/a", data).status.is_ok());
  for (const auto& p : registry_.all()) p->reset_counters();

  auto w = client_->put("/b", data);  // identical content
  ASSERT_TRUE(w.status.is_ok());

  // Only the metadata block moved; no data-container bytes.
  std::uint64_t data_bytes = 0;
  for (const auto& p : registry_.all()) {
    data_bytes += p->counters().bytes_written;
  }
  EXPECT_LT(data_bytes, 16 * 1024u);  // metadata blocks only
  EXPECT_EQ(client_->dedup().stats().alias_files, 1u);
  EXPECT_EQ(client_->dedup().stats().bytes_deduplicated, 500 * 1024u);

  // Both paths read back correctly.
  EXPECT_EQ(client_->get("/a").data, data);
  EXPECT_EQ(client_->get("/b").data, data);
}

TEST_F(DedupHyRDTest, LargeFileDedupAcrossErasure) {
  const auto data = common::patterned(4 << 20, 2);
  client_->put("/v1.iso", data);
  const std::uint64_t before = fleet_bytes_written();
  client_->put("/v2.iso", data);
  // The second copy must not re-stripe (allow metadata-only growth).
  EXPECT_LT(fleet_bytes_written() - before, 64 * 1024u);
  EXPECT_EQ(client_->get("/v2.iso").data, data);
}

TEST_F(DedupHyRDTest, RemovingAliasKeepsSharedFragments) {
  const auto data = common::patterned(200 * 1024, 3);
  client_->put("/a", data);
  client_->put("/b", data);
  ASSERT_TRUE(client_->remove("/a").status.is_ok());
  // /b still reads fine.
  auto r = client_->get("/b");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, data);
  // Removing the last reference frees the fragments.
  ASSERT_TRUE(client_->remove("/b").status.is_ok());
  for (const auto& p : registry_.all()) {
    auto listing = p->list("hyrd-data");
    if (listing.ok()) {
      EXPECT_TRUE(listing.names.empty()) << p->name();
    }
  }
}

TEST_F(DedupHyRDTest, UpdateIsCopyOnWrite) {
  const auto data = common::patterned(100 * 1024, 4);
  client_->put("/a", data);
  client_->put("/b", data);

  const auto patch = common::patterned(1024, 5);
  ASSERT_TRUE(client_->update("/b", 50, patch).status.is_ok());

  // /a keeps the original; /b has the patched content.
  EXPECT_EQ(client_->get("/a").data, data);
  common::Bytes expected = data;
  std::copy(patch.begin(), patch.end(), expected.begin() + 50);
  EXPECT_EQ(client_->get("/b").data, expected);
  EXPECT_FALSE(client_->dedup().is_shared("/a"));
}

TEST_F(DedupHyRDTest, OverwritingSharedPathPreservesOtherAlias) {
  const auto data = common::patterned(80 * 1024, 6);
  client_->put("/a", data);  // canonical
  client_->put("/b", data);  // alias
  const auto fresh = common::patterned(80 * 1024, 7);
  client_->put("/a", fresh);  // canonical path overwritten

  EXPECT_EQ(client_->get("/a").data, fresh);
  EXPECT_EQ(client_->get("/b").data, data);  // alias unaffected
}

TEST_F(DedupHyRDTest, RePuttingSameContentKeepsIt) {
  // The path already holds this content: the put aliases it to itself and
  // must not release the fragments its own meta still names.
  const auto data = common::patterned(4096, 9);
  ASSERT_TRUE(client_->put("/a", data).status.is_ok());
  ASSERT_TRUE(client_->put("/a", data).status.is_ok());
  const auto r = client_->get("/a");
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_EQ(r.data, data);
  EXPECT_EQ(client_->dedup().stats().unique_files, 1u);
}

TEST_F(DedupHyRDTest, DifferentContentSameSizeNotAliased) {
  client_->put("/a", common::patterned(4096, 8));
  client_->put("/b", common::patterned(4096, 9));
  EXPECT_EQ(client_->dedup().stats().unique_files, 2u);
  EXPECT_EQ(client_->dedup().stats().alias_files, 0u);
}

TEST_F(DedupHyRDTest, ManyAliasesOneCopy) {
  const auto data = common::patterned(1 << 20, 10);  // exactly threshold
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        client_->put("/copies/c" + std::to_string(i), data).status.is_ok());
  }
  EXPECT_EQ(client_->dedup().stats().unique_files, 1u);
  EXPECT_EQ(client_->dedup().stats().alias_files, 5u);
  // Fleet stores ~1.5x one copy (k=2+1 stripe), not 6 copies.
  std::uint64_t resident = 0;
  for (const auto& p : registry_.all()) resident += p->stored_bytes();
  EXPECT_LT(resident, 2 * data.size());
}

TEST_F(DedupHyRDTest, DedupSurvivesOutage) {
  const auto data = common::patterned(300 * 1024, 11);
  client_->put("/a", data);
  registry_.find("WindowsAzure")->set_online(false);
  ASSERT_TRUE(client_->put("/b", data).status.is_ok());  // alias, meta logged
  auto r = client_->get("/b");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, data);
}

}  // namespace
}  // namespace hyrd::core
