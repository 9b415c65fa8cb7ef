#include "core/depsky_client.h"

#include <gtest/gtest.h>

#include "cloud/profiles.h"
#include "core/duracloud_client.h"
#include "support/cloud_spans.h"

namespace hyrd::core {
namespace {

class DepSkyTest : public ::testing::Test {
 protected:
  DepSkyTest() {
    cloud::install_standard_four(registry_, 121);
    session_ = std::make_unique<gcs::MultiCloudSession>(registry_);
    client_ = std::make_unique<DepSkyClient>(*session_);
  }
  cloud::CloudRegistry registry_;
  std::unique_ptr<gcs::MultiCloudSession> session_;
  std::unique_ptr<DepSkyClient> client_;
};

TEST_F(DepSkyTest, ReplicatesOnEveryCloud) {
  const auto data = common::patterned(100 * 1024, 1);
  auto w = client_->put("/f", data);
  ASSERT_TRUE(w.status.is_ok());
  EXPECT_EQ(w.meta.locations.size(), 4u);
  for (const auto& p : registry_.all()) {
    EXPECT_GE(p->stored_bytes(), data.size()) << p->name();
  }
  auto r = client_->get("/f");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, data);
}

TEST_F(DepSkyTest, QuorumIsNMinusF) { EXPECT_EQ(client_->quorum(), 3u); }

TEST_F(DepSkyTest, WriteLatencyIsQuorumNotSlowest) {
  // The 3rd-fastest acknowledgment gates the write, so DepSky writes are
  // faster than a wait-for-all fan-out over the same four clouds.
  const auto data = common::patterned(1 << 20, 2);
  auto w = client_->put("/q", data);
  ASSERT_TRUE(w.status.is_ok());

  // Wait-for-all reference: a parallel ReplicationScheme over all four.
  dist::ReplicationScheme all_four("depsky-data");
  auto ref = all_four.write(*session_, "/all", data, {0, 1, 2, 3});
  ASSERT_TRUE(ref.status.is_ok());
  // w.latency includes metadata persistence; compare the data part only
  // by writing another object through the reference scheme.
  EXPECT_LT(w.meta.size, ref.meta.size + 1);  // sanity
  // The quorum write must not be slower than wait-for-all + metadata.
  EXPECT_LT(w.latency, ref.latency * 2);
}

TEST_F(DepSkyTest, ToleratesSingleOutageOnWriteAndRead) {
  registry_.find("Rackspace")->set_online(false);
  const auto data = common::patterned(50 * 1024, 3);
  auto w = client_->put("/f", data);
  ASSERT_TRUE(w.status.is_ok());  // 3 acks = quorum
  auto r = client_->get("/f");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, data);
}

TEST_F(DepSkyTest, TwoOutagesBreakWriteQuorum) {
  registry_.find("Rackspace")->set_online(false);
  registry_.find("AmazonS3")->set_online(false);
  auto w = client_->put("/f", common::patterned(1000, 4));
  EXPECT_EQ(w.status.code(), common::StatusCode::kUnavailable);
}

TEST_F(DepSkyTest, ReadsSurviveTwoOutages) {
  // Reads need only one verified replica: stronger than the write quorum.
  const auto data = common::patterned(2000, 5);
  client_->put("/f", data);
  registry_.find("Rackspace")->set_online(false);
  registry_.find("AmazonS3")->set_online(false);
  registry_.find("WindowsAzure")->set_online(false);
  auto r = client_->get("/f");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, data);
}

TEST_F(DepSkyTest, OutageWriteLoggedAndResynced) {
  registry_.find("AmazonS3")->set_online(false);
  const auto data = common::patterned(10 * 1024, 6);
  ASSERT_TRUE(client_->put("/f", data).status.is_ok());
  EXPECT_FALSE(client_->update_log().pending_for("AmazonS3").empty());

  registry_.find("AmazonS3")->set_online(true);
  client_->on_provider_restored("AmazonS3");
  EXPECT_TRUE(client_->update_log().pending_for("AmazonS3").empty());

  // S3's replica is now consistent: read with everything else down.
  for (const char* n : {"WindowsAzure", "Aliyun", "Rackspace"}) {
    registry_.find(n)->set_online(false);
  }
  auto r = client_->get("/f");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, data);
}

TEST_F(DepSkyTest, PartialUpdateQuorum) {
  const auto data = common::patterned(10000, 7);
  client_->put("/f", data);
  const auto patch = common::patterned(100, 8);
  auto u = client_->update("/f", 500, patch);
  ASSERT_TRUE(u.status.is_ok());
  auto r = client_->get("/f");
  common::Bytes expected = data;
  std::copy(patch.begin(), patch.end(), expected.begin() + 500);
  EXPECT_EQ(r.data, expected);
}

TEST_F(DepSkyTest, FailedQuorumUpdateChargesTheWaitLikeAFailedWrite) {
  ASSERT_TRUE(client_->put("/f", common::patterned(10000, 13)).status.is_ok());
  registry_.find("Rackspace")->set_online(false);
  registry_.find("AmazonS3")->set_online(false);
  // Every put runs to completion, so a failed quorum op costs the slowest
  // reply: the longest cloud span the op emitted, one per cloud.
  test::CloudSpanCapture capture;
  const auto waited = [&] {
    const auto spans = capture.spans();
    EXPECT_EQ(spans.size(), session_->client_count());
    common::SimDuration slowest = 0;
    for (const auto& s : spans) slowest = std::max(slowest, s.dur);
    capture.clear();
    return slowest;
  };
  auto w = client_->put("/g", common::patterned(10000, 14));
  ASSERT_EQ(w.status.code(), common::StatusCode::kUnavailable);
  EXPECT_EQ(w.latency, waited());
  auto u = client_->update("/f", 500, common::patterned(100, 15));
  ASSERT_EQ(u.status.code(), common::StatusCode::kUnavailable);
  EXPECT_GT(u.latency, 0);
  EXPECT_EQ(u.latency, waited());
}

TEST_F(DepSkyTest, UpdateCannotGrow) {
  client_->put("/f", common::patterned(100, 9));
  EXPECT_EQ(client_->update("/f", 95, common::patterned(10, 10)).status.code(),
            common::StatusCode::kInvalidArgument);
}

TEST_F(DepSkyTest, FourTimesStorageCost) {
  // Table I: DepSky cost "High" — full replication on every cloud.
  const auto data = common::patterned(1 << 20, 11);
  client_->put("/f", data);
  std::uint64_t resident = 0;
  for (const auto& p : registry_.all()) resident += p->stored_bytes();
  EXPECT_GE(resident, 4u * data.size());
}

TEST_F(DepSkyTest, RemoveClearsAllClouds) {
  auto w = client_->put("/f", common::patterned(1000, 12));
  ASSERT_TRUE(w.status.is_ok());
  ASSERT_TRUE(client_->remove("/f").status.is_ok());
  // The file's own replicas are gone from every cloud; only the "/"
  // directory's metadata-block object remains (one per cloud).
  for (const auto& p : registry_.all()) {
    for (const auto& loc : w.meta.locations) {
      if (loc.provider != p->name()) continue;
      EXPECT_EQ(p->raw_store().object_size("depsky-data", loc.object_name),
                std::nullopt)
          << p->name();
    }
    auto listing = p->list("depsky-data");
    ASSERT_TRUE(listing.ok());
    EXPECT_EQ(listing.names.size(), 1u) << p->name();
  }
}

}  // namespace
}  // namespace hyrd::core
