// End-to-end outage lifecycle tests: the paper's §III-C recovery design
// driven through the full client stack — writes during an outage are
// logged, reads reconstruct on demand, and the provider's return triggers
// a consistency update that restores full redundancy.
#include <gtest/gtest.h>

#include "cloud/outage.h"
#include "cloud/profiles.h"
#include "core/duracloud_client.h"
#include "core/hyrd_client.h"
#include "core/racs_client.h"

namespace hyrd {
namespace {

class OutageLifecycleTest : public ::testing::Test {
 protected:
  OutageLifecycleTest() {
    cloud::install_standard_four(registry_, 53);
    session_ = std::make_unique<gcs::MultiCloudSession>(registry_);
  }
  cloud::CloudRegistry registry_;
  std::unique_ptr<gcs::MultiCloudSession> session_;
};

TEST_F(OutageLifecycleTest, HyRDFullCycleSmallFile) {
  core::HyRDClient client(*session_);
  cloud::OutageController outages(registry_);

  // Azure (a replica target) goes down; write proceeds.
  outages.take_down("WindowsAzure");
  const auto v1 = common::patterned(2000, 1);
  ASSERT_TRUE(client.put("/mail/msg", v1).status.is_ok());
  EXPECT_FALSE(client.update_log().empty());

  // Read during the outage is served from the surviving replica.
  auto r = client.get("/mail/msg");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, v1);

  // Provider returns; consistency update replays the log.
  outages.restore("WindowsAzure");
  const auto resync = client.on_provider_restored("WindowsAzure");
  EXPECT_TRUE(resync.status.is_ok());
  EXPECT_GT(resync.latency, 0);
  EXPECT_TRUE(client.update_log().pending_for("WindowsAzure").empty());

  // Full redundancy is restored: Aliyun alone down is now tolerable.
  outages.take_down("Aliyun");
  auto r2 = client.get("/mail/msg");
  ASSERT_TRUE(r2.status.is_ok());
  EXPECT_EQ(r2.data, v1);
}

TEST_F(OutageLifecycleTest, HyRDFullCycleLargeFile) {
  core::HyRDClient client(*session_);
  cloud::OutageController outages(registry_);

  const auto v1 = common::patterned(5 << 20, 2);
  ASSERT_TRUE(client.put("/media/clip", v1).status.is_ok());

  // A shard-holding provider dies; the file is overwritten meanwhile.
  outages.take_down("Rackspace");
  const auto v2 = common::patterned(5 << 20, 3);
  ASSERT_TRUE(client.put("/media/clip", v2).status.is_ok());

  // Degraded read returns the *new* content.
  auto r = client.get("/media/clip");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, v2);

  // Rackspace returns with a stale fragment; resync fixes it.
  outages.restore("Rackspace");
  client.on_provider_restored("Rackspace");

  // Now any other single provider can fail and v2 is still readable.
  for (const auto& name : {"Aliyun", "WindowsAzure", "AmazonS3"}) {
    outages.take_down(name);
    auto rr = client.get("/media/clip");
    ASSERT_TRUE(rr.status.is_ok()) << name;
    EXPECT_EQ(rr.data, v2) << name;
    outages.restore(name);
  }
}

TEST_F(OutageLifecycleTest, HyRDDeleteDuringOutagePropagatesOnReturn) {
  core::HyRDClient client(*session_);
  cloud::OutageController outages(registry_);

  ASSERT_TRUE(client.put("/f", common::patterned(500, 4)).status.is_ok());
  const auto before = registry_.find("Aliyun")->object_count();
  ASSERT_GT(before, 0u);

  outages.take_down("Aliyun");
  ASSERT_TRUE(client.remove("/f").status.is_ok());

  outages.restore("Aliyun");
  client.on_provider_restored("Aliyun");
  // Stale data replica must be gone; only metadata block objects remain.
  auto data_listing = registry_.find("Aliyun")->list("hyrd-data");
  ASSERT_TRUE(data_listing.ok());
  EXPECT_TRUE(data_listing.names.empty());
}

TEST_F(OutageLifecycleTest, HyRDMetadataBlockResynced) {
  core::HyRDClient client(*session_);
  cloud::OutageController outages(registry_);

  ASSERT_TRUE(client.put("/d/a", common::patterned(100, 5)).status.is_ok());
  outages.take_down("WindowsAzure");
  ASSERT_TRUE(client.put("/d/b", common::patterned(100, 6)).status.is_ok());
  outages.restore("WindowsAzure");
  client.on_provider_restored("WindowsAzure");

  // Azure's copy of the /d metadata block must now list both files: a
  // fresh client reading ONLY Azure must see them.
  outages.take_down("Aliyun");
  core::HyRDClient fresh(*session_);
  ASSERT_TRUE(fresh.rebuild_metadata_from_cloud().is_ok());
  auto paths = fresh.list();
  EXPECT_EQ(paths.size(), 2u);
}

TEST_F(OutageLifecycleTest, RacsFullCycle) {
  core::RACSClient racs(*session_);
  cloud::OutageController outages(registry_);

  const auto data = common::patterned(6 << 20, 7);
  ASSERT_TRUE(racs.put("/big", data).status.is_ok());

  outages.take_down("AmazonS3");
  const auto patch = common::patterned(4096, 8);
  ASSERT_TRUE(racs.update("/big", 77, patch).status.is_ok());

  outages.restore("AmazonS3");
  racs.on_provider_restored("AmazonS3");

  common::Bytes expected = data;
  std::copy(patch.begin(), patch.end(), expected.begin() + 77);
  for (const auto& name : {"Aliyun", "WindowsAzure", "Rackspace"}) {
    outages.take_down(name);
    auto r = racs.get("/big");
    ASSERT_TRUE(r.status.is_ok()) << name;
    EXPECT_EQ(r.data, expected) << name;
    outages.restore(name);
  }
}

TEST_F(OutageLifecycleTest, DuraCloudFullCycle) {
  core::DuraCloudClient dura(*session_);
  cloud::OutageController outages(registry_);

  outages.take_down("Aliyun");
  const auto data = common::patterned(1 << 20, 9);
  ASSERT_TRUE(dura.put("/f", data).status.is_ok());

  outages.restore("Aliyun");
  dura.on_provider_restored("Aliyun");

  outages.take_down("WindowsAzure");
  auto r = dura.get("/f");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, data);
}

TEST_F(OutageLifecycleTest, ChurnSoakPreservesAllData) {
  // Random availability churn with at least 3 providers online (single
  // concurrent outage); every stored file must stay readable throughout.
  core::HyRDClient client(*session_);
  cloud::RandomOutageInjector churn(registry_, 61, 0.25, 0.5, 3);
  common::Xoshiro256 rng(71);

  std::map<std::string, common::Bytes> oracle;
  for (int step = 0; step < 60; ++step) {
    churn.step();
    const std::string path = "/soak/f" + std::to_string(rng.uniform_int(0, 9));
    const double action = rng.uniform();
    if (action < 0.5 || !oracle.contains(path)) {
      const std::uint64_t size =
          rng.chance(0.3) ? rng.uniform_int(1 << 20, 3 << 20)
                          : rng.uniform_int(1, 64 << 10);
      common::Bytes data = common::patterned(size, rng());
      auto w = client.put(path, data);
      if (w.status.is_ok()) oracle[path] = std::move(data);
    } else if (action < 0.8) {
      auto r = client.get(path);
      ASSERT_TRUE(r.status.is_ok()) << path << " step " << step;
      EXPECT_EQ(r.data, oracle[path]) << path << " step " << step;
    } else {
      auto rm = client.remove(path);
      if (rm.status.is_ok()) oracle.erase(path);
    }
    // Whenever a provider is online, let the client resync it so stale
    // fragments don't accumulate (the paper's consistency update).
    for (const auto& p : registry_.all()) {
      if (p->online()) client.on_provider_restored(p->name());
    }
  }
  // Final verification with everything online.
  for (const auto& p : registry_.all()) p->set_online(true);
  for (const auto& p : registry_.all()) client.on_provider_restored(p->name());
  for (const auto& [path, data] : oracle) {
    auto r = client.get(path);
    ASSERT_TRUE(r.status.is_ok()) << path;
    EXPECT_EQ(r.data, data) << path;
  }
}

}  // namespace
}  // namespace hyrd
