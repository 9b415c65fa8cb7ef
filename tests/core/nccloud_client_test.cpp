#include "core/nccloud_client.h"

#include <gtest/gtest.h>

#include "cloud/outage.h"
#include "cloud/profiles.h"
#include "core/racs_client.h"

namespace hyrd::core {
namespace {

class NCCloudTest : public ::testing::Test {
 protected:
  NCCloudTest() {
    cloud::install_standard_four(registry_, 151);
    session_ = std::make_unique<gcs::MultiCloudSession>(registry_);
    client_ = std::make_unique<NCCloudClient>(*session_);
  }
  cloud::CloudRegistry registry_;
  std::unique_ptr<gcs::MultiCloudSession> session_;
  std::unique_ptr<NCCloudClient> client_;
};

TEST_F(NCCloudTest, PutSpreadsTwoChunksPerCloud) {
  const auto data = common::patterned(1 << 20, 1);
  auto w = client_->put("/f", data);
  ASSERT_TRUE(w.status.is_ok());
  EXPECT_EQ(w.meta.locations.size(), 8u);
  for (const auto& p : registry_.all()) {
    auto listing = p->list("nccloud-data");
    ASSERT_TRUE(listing.ok());
    // 2 data chunks + 1 metadata block object.
    EXPECT_EQ(listing.names.size(), 3u) << p->name();
  }
  // MSR storage point: 2x the object across the fleet (+ metadata).
  std::uint64_t resident = 0;
  for (const auto& p : registry_.all()) resident += p->stored_bytes();
  EXPECT_NEAR(static_cast<double>(resident) / data.size(), 2.0, 0.1);
}

TEST_F(NCCloudTest, RoundTripVariousSizes) {
  for (std::uint64_t size : {1ull, 100ull, 4096ull, 1048577ull}) {
    const auto data = common::patterned(size, size + 1);
    ASSERT_TRUE(client_->put("/s" + std::to_string(size), data)
                    .status.is_ok());
    auto r = client_->get("/s" + std::to_string(size));
    ASSERT_TRUE(r.status.is_ok()) << size;
    EXPECT_EQ(r.data, data) << size;
  }
}

TEST_F(NCCloudTest, ReadsFromTwoCloudsOnly) {
  const auto data = common::patterned(2 << 20, 2);
  client_->put("/f", data);
  for (const auto& p : registry_.all()) p->reset_counters();
  auto r = client_->get("/f");
  ASSERT_TRUE(r.status.is_ok());
  std::size_t clouds_touched = 0;
  for (const auto& p : registry_.all()) {
    if (p->counters().gets > 0) ++clouds_touched;
  }
  EXPECT_EQ(clouds_touched, 2u);
}

TEST_F(NCCloudTest, ToleratesTwoOutagesOnRead) {
  const auto data = common::patterned(500 * 1024, 3);
  client_->put("/f", data);
  registry_.find("AmazonS3")->set_online(false);
  registry_.find("Rackspace")->set_online(false);
  auto r = client_->get("/f");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, data);
  EXPECT_TRUE(r.degraded);
}

TEST_F(NCCloudTest, ThreeOutagesIsDataLoss) {
  client_->put("/f", common::patterned(1000, 4));
  for (const char* n : {"AmazonS3", "Rackspace", "WindowsAzure"}) {
    registry_.find(n)->set_online(false);
  }
  auto r = client_->get("/f");
  EXPECT_FALSE(r.status.is_ok());
}

TEST_F(NCCloudTest, UpdateReencodesWholeObject) {
  const auto data = common::patterned(300 * 1024, 5);
  client_->put("/f", data);
  const auto patch = common::patterned(100, 6);
  auto u = client_->update("/f", 1000, patch);
  ASSERT_TRUE(u.status.is_ok());
  auto r = client_->get("/f");
  common::Bytes expected = data;
  std::copy(patch.begin(), patch.end(), expected.begin() + 1000);
  EXPECT_EQ(r.data, expected);
}

TEST_F(NCCloudTest, RemoveClearsChunks) {
  client_->put("/f", common::patterned(1000, 7));
  ASSERT_TRUE(client_->remove("/f").status.is_ok());
  EXPECT_EQ(client_->get("/f").status.code(), common::StatusCode::kNotFound);
}

TEST_F(NCCloudTest, CorruptChunkForcesAnotherPair) {
  const auto data = common::patterned(1 << 20, 8);
  auto w = client_->put("/f", data);
  ASSERT_TRUE(w.status.is_ok());
  // Corrupt one chunk on the fastest provider (Aliyun, first read choice).
  auto* ali = registry_.find("Aliyun");
  const std::size_t node = session_->index_of("Aliyun");
  const auto& loc = w.meta.locations[node * 2];
  auto chunk = ali->raw_store().get("nccloud-data", loc.object_name);
  ASSERT_TRUE(chunk.is_ok());
  common::Bytes bad = chunk.value().to_bytes();
  bad[7] ^= 0x10;
  ali->raw_store().put("nccloud-data", loc.object_name, bad);

  auto r = client_->get("/f");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.data, data);
}

TEST_F(NCCloudTest, FunctionalRepairAfterOutage) {
  cloud::OutageController outages(registry_);
  const auto data = common::patterned(2 << 20, 9);
  client_->put("/f", data);

  // S3 misses an overwrite during its outage.
  outages.take_down("AmazonS3");
  const auto fresh = common::patterned(2 << 20, 10);
  ASSERT_TRUE(client_->put("/f", fresh).status.is_ok());

  outages.restore("AmazonS3");
  for (const auto& p : registry_.all()) p->reset_counters();
  const auto resync = client_->on_provider_restored("AmazonS3");
  EXPECT_TRUE(resync.status.is_ok());
  EXPECT_GT(resync.latency, 0);

  // The regenerating saving: repair downloaded one chunk from each of the
  // 3 survivors = 0.75x the object, not the full object.
  std::uint64_t downloaded = 0;
  for (const auto& p : registry_.all()) downloaded += p->counters().bytes_read;
  EXPECT_NEAR(static_cast<double>(downloaded) / (2 << 20), 0.75, 0.05);

  // And S3 is a first-class node again: any other two clouds may fail.
  outages.take_down("Aliyun");
  outages.take_down("WindowsAzure");
  auto r = client_->get("/f");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, fresh);
}

TEST_F(NCCloudTest, FailedRepairStaysPendingUntilItCanRun) {
  cloud::OutageController outages(registry_);
  const auto data = common::patterned(1 << 20, 13);
  outages.take_down("AmazonS3");
  ASSERT_TRUE(client_->put("/f", data).status.is_ok());
  const std::size_t pending =
      client_->update_log().pending_for("AmazonS3").size();
  ASSERT_GT(pending, 0u);

  // The repair needs one chunk from each of the three other clouds, so
  // with Rackspace down it fails and S3's records stay pending.
  outages.take_down("Rackspace");
  outages.restore("AmazonS3");
  EXPECT_FALSE(client_->on_provider_restored("AmazonS3").status.is_ok());
  EXPECT_EQ(client_->update_log().pending_for("AmazonS3").size(), pending);

  outages.restore("Rackspace");
  client_->on_provider_restored("Rackspace");
  client_->on_provider_restored("AmazonS3");
  EXPECT_TRUE(client_->update_log().pending_for("AmazonS3").empty());

  // S3 now holds real chunks: the acked bytes survive losing the other
  // two clouds.
  outages.take_down("Aliyun");
  outages.take_down("WindowsAzure");
  auto r = client_->get("/f");
  ASSERT_TRUE(r.status.is_ok()) << r.status.to_string();
  EXPECT_EQ(r.data, data);
}

TEST_F(NCCloudTest, RepairCheaperThanRacsResync) {
  // Table I "Recovery: Moderate": NCCloud's repair traffic beats RACS's
  // conventional reconstruction for the same stored object.
  const auto data = common::patterned(3 << 20, 11);
  cloud::OutageController outages(registry_);

  client_->put("/nc", data);
  outages.take_down("AmazonS3");
  client_->put("/nc", common::patterned(3 << 20, 12));
  outages.restore("AmazonS3");
  for (const auto& p : registry_.all()) p->reset_counters();
  client_->on_provider_restored("AmazonS3");
  std::uint64_t nccloud_traffic = 0;
  for (const auto& p : registry_.all()) {
    nccloud_traffic +=
        p->counters().bytes_read + p->counters().bytes_written;
  }

  cloud::CloudRegistry reg2;
  cloud::install_standard_four(reg2, 151);
  gcs::MultiCloudSession session2(reg2);
  RACSClient racs(session2);
  cloud::OutageController outages2(reg2);
  racs.put("/nc", data);
  outages2.take_down("AmazonS3");
  racs.put("/nc", common::patterned(3 << 20, 12));
  outages2.restore("AmazonS3");
  for (const auto& p : reg2.all()) p->reset_counters();
  racs.on_provider_restored("AmazonS3");
  std::uint64_t racs_traffic = 0;
  for (const auto& p : reg2.all()) {
    racs_traffic += p->counters().bytes_read + p->counters().bytes_written;
  }

  EXPECT_LT(nccloud_traffic, racs_traffic);
}

}  // namespace
}  // namespace hyrd::core
