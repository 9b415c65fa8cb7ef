#include <gtest/gtest.h>

#include "cloud/profiles.h"
#include "dist/recovery.h"

namespace hyrd::dist {
namespace {

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest()
      : replication_("data"), erasure_("data", {.k = 3, .m = 1}) {
    cloud::install_standard_four(registry_, 5);
    session_ = std::make_unique<gcs::MultiCloudSession>(registry_);
    session_->ensure_container_everywhere("data");
    recovery_ = std::make_unique<RecoveryManager>(*session_, store_, log_,
                                                  &replication_, &erasure_);
  }

  std::size_t idx(const std::string& n) { return session_->index_of(n); }

  cloud::CloudRegistry registry_;
  std::unique_ptr<gcs::MultiCloudSession> session_;
  meta::MetadataStore store_;
  meta::UpdateLog log_;
  ReplicationScheme replication_;
  ErasureScheme erasure_;
  std::unique_ptr<RecoveryManager> recovery_;
};

TEST_F(RecoveryTest, ResyncRepushesReplicatedObject) {
  // Write while Azure is down; its replica is missing.
  registry_.find("WindowsAzure")->set_online(false);
  std::vector<std::string> unreachable;
  const auto data = common::patterned(2048, 1);
  auto w = replication_.write(*session_, "/f", data,
                              {idx("Aliyun"), idx("WindowsAzure")},
                              &unreachable);
  ASSERT_TRUE(w.status.is_ok());
  store_.upsert(w.meta);
  for (const auto& loc : w.meta.locations) {
    if (loc.provider == "WindowsAzure") {
      log_.append("WindowsAzure", "data", "/f", loc.object_name,
                  meta::LogAction::kPut);
    }
  }

  registry_.find("WindowsAzure")->set_online(true);
  auto report = recovery_->resync("WindowsAzure");
  ASSERT_TRUE(report.status.is_ok());
  EXPECT_EQ(report.objects_repushed, 1u);
  EXPECT_EQ(report.bytes_pushed, 2048u);
  EXPECT_TRUE(log_.pending_for("WindowsAzure").empty());

  // Azure now serves the replica by itself.
  registry_.find("Aliyun")->set_online(false);
  auto r = replication_.read(*session_, w.meta);
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, data);
}

TEST_F(RecoveryTest, ResyncRebuildsErasureFragment) {
  registry_.find("AmazonS3")->set_online(false);
  std::vector<std::string> unreachable;
  const auto data = common::patterned(3 << 20, 2);
  const std::vector<std::size_t> slots = {idx("Rackspace"), idx("Aliyun"),
                                          idx("WindowsAzure"),
                                          idx("AmazonS3")};
  auto w = erasure_.write(*session_, "/big", data, slots, &unreachable);
  ASSERT_TRUE(w.status.is_ok());
  store_.upsert(w.meta);
  for (const auto& loc : w.meta.locations) {
    if (loc.provider == "AmazonS3") {
      log_.append("AmazonS3", "data", "/big", loc.object_name,
                  meta::LogAction::kPut);
    }
  }

  registry_.find("AmazonS3")->set_online(true);
  auto report = recovery_->resync("AmazonS3");
  ASSERT_TRUE(report.status.is_ok());
  EXPECT_EQ(report.objects_repushed, 1u);

  // The rebuilt parity must make single-failure reads work again.
  registry_.find("Aliyun")->set_online(false);
  auto r = erasure_.read(*session_, w.meta);
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, data);
}

TEST_F(RecoveryTest, ResyncAppliesLoggedRemoves) {
  const auto data = common::patterned(512, 3);
  auto w = replication_.write(*session_, "/f", data,
                              {idx("Aliyun"), idx("WindowsAzure")});
  ASSERT_TRUE(w.status.is_ok());

  // Azure goes down; the file is removed meanwhile.
  registry_.find("WindowsAzure")->set_online(false);
  auto rm = replication_.remove(*session_, w.meta);
  for (const auto& p : rm.unreachable_providers) {
    for (const auto& loc : w.meta.locations) {
      if (loc.provider == p) {
        log_.append(p, "data", "/f", loc.object_name, meta::LogAction::kRemove);
      }
    }
  }
  registry_.find("WindowsAzure")->set_online(true);
  EXPECT_EQ(registry_.find("WindowsAzure")->object_count(), 1u);  // stale

  auto report = recovery_->resync("WindowsAzure");
  ASSERT_TRUE(report.status.is_ok());
  EXPECT_EQ(report.removes_applied, 1u);
  EXPECT_EQ(registry_.find("WindowsAzure")->object_count(), 0u);
}

TEST_F(RecoveryTest, ResyncSkipsDeletedFiles) {
  registry_.find("WindowsAzure")->set_online(false);
  const auto data = common::patterned(100, 4);
  auto w = replication_.write(*session_, "/f", data,
                              {idx("Aliyun"), idx("WindowsAzure")});
  store_.upsert(w.meta);
  log_.append("WindowsAzure", "data", "/f", w.meta.locations[1].object_name,
              meta::LogAction::kPut);
  // File deleted before the provider returns; its meta is gone.
  store_.erase("/f");

  registry_.find("WindowsAzure")->set_online(true);
  auto report = recovery_->resync("WindowsAzure");
  ASSERT_TRUE(report.status.is_ok());
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(report.objects_repushed, 0u);
}

TEST_F(RecoveryTest, ResyncKeepsAFailedCleanupRemovePending) {
  // Azure holds a replica of /f, which is deleted before the resync: the
  // replay must remove that stale object. The op before the remove (a
  // block put) takes Azure offline, so the remove fails and its record
  // must stay pending instead of leaving the object billed forever.
  auto* azure = registry_.find("WindowsAzure");
  auto w = replication_.write(*session_, "/f", common::patterned(100, 5),
                              {idx("Aliyun"), idx("WindowsAzure")});
  ASSERT_TRUE(w.status.is_ok());
  store_.upsert(w.meta);
  store_.erase("/f");
  recovery_->set_block_regenerator(
      [](const std::string& path) -> std::optional<common::Bytes> {
        if (path == "blk") return common::bytes_of("block");
        return std::nullopt;
      });
  log_.append("WindowsAzure", "data", "blk", "blk-object",
              meta::LogAction::kPut);
  log_.append("WindowsAzure", "data", "/f", w.meta.locations[1].object_name,
              meta::LogAction::kPut);
  azure->set_op_hook([&](cloud::OpKind op, const cloud::ObjectKey& key) {
    if (op == cloud::OpKind::kPut && key.name == "blk-object") {
      azure->set_online(false);
    }
  });
  const auto first = recovery_->resync("WindowsAzure");
  azure->set_op_hook(nullptr);
  EXPECT_FALSE(first.status.is_ok());
  const auto pending = log_.pending_for("WindowsAzure");
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].path, "/f");
  EXPECT_EQ(azure->object_count(), 2u);  // the block and the stale replica

  azure->set_online(true);
  const auto retry = recovery_->resync("WindowsAzure");
  ASSERT_TRUE(retry.status.is_ok());
  EXPECT_EQ(retry.skipped, 1u);
  EXPECT_TRUE(log_.pending_for("WindowsAzure").empty());
  EXPECT_EQ(azure->object_count(), 1u);  // only the block
}

TEST_F(RecoveryTest, ResyncUsesBlockRegenerator) {
  recovery_->set_block_regenerator(
      [](const std::string& path) -> std::optional<common::Bytes> {
        if (path == "synthetic:blk") return common::bytes_of("regenerated");
        return std::nullopt;
      });
  log_.append("Aliyun", "data", "synthetic:blk", "blk-object",
              meta::LogAction::kPut);
  auto report = recovery_->resync("Aliyun");
  ASSERT_TRUE(report.status.is_ok());
  EXPECT_EQ(report.objects_repushed, 1u);
  auto got = registry_.find("Aliyun")->get({"data", "blk-object"});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(common::to_string(got.data), "regenerated");
}

TEST_F(RecoveryTest, ResyncKeepsProgressWhenAPutFails) {
  // Five logged records; the provider's put of record 2 fails (the op hook
  // wipes the store under it, so the put finds no container). Records 0
  // and 1 were applied, so the retry must replay exactly records 2..4.
  constexpr std::size_t kRecords = 5;
  constexpr std::size_t kFailAt = 2;
  recovery_->set_block_regenerator(
      [](const std::string& path) -> std::optional<common::Bytes> {
        return common::bytes_of(path);
      });
  for (std::size_t i = 0; i < kRecords; ++i) {
    log_.append("Aliyun", "data", "blk" + std::to_string(i),
                "o" + std::to_string(i), meta::LogAction::kPut);
  }
  auto* aliyun = registry_.find("Aliyun");
  const std::string fail_name = "o" + std::to_string(kFailAt);
  bool failed_once = false;
  aliyun->set_op_hook([&](cloud::OpKind op, const cloud::ObjectKey& key) {
    if (op == cloud::OpKind::kPut && key.name == fail_name && !failed_once) {
      failed_once = true;
      aliyun->raw_store().wipe();
    }
  });
  aliyun->reset_counters();
  const auto first = recovery_->resync("Aliyun");
  aliyun->set_op_hook(nullptr);
  EXPECT_FALSE(first.status.is_ok());
  EXPECT_EQ(first.objects_repushed, kFailAt);
  EXPECT_EQ(aliyun->counters().puts, kFailAt + 1);  // the failed put too
  EXPECT_EQ(log_.pending_for("Aliyun").size(), kRecords - kFailAt);

  ASSERT_TRUE(aliyun->create("data").ok());
  aliyun->reset_counters();
  const auto retry = recovery_->resync("Aliyun");
  ASSERT_TRUE(retry.status.is_ok());
  EXPECT_EQ(retry.objects_repushed, kRecords - kFailAt);
  EXPECT_EQ(aliyun->counters().puts, kRecords - kFailAt);
  EXPECT_TRUE(log_.pending_for("Aliyun").empty());
}

TEST_F(RecoveryTest, ResyncFailsWhileProviderStillOffline) {
  registry_.find("Aliyun")->set_online(false);
  auto report = recovery_->resync("Aliyun");
  EXPECT_EQ(report.status.code(), common::StatusCode::kFailedPrecondition);
}

TEST_F(RecoveryTest, ResyncUnknownProviderFails) {
  auto report = recovery_->resync("Nimbus");
  EXPECT_EQ(report.status.code(), common::StatusCode::kInvalidArgument);
}

TEST_F(RecoveryTest, ResyncEmptyLogIsCleanNoop) {
  auto report = recovery_->resync("Aliyun");
  EXPECT_TRUE(report.status.is_ok());
  EXPECT_EQ(report.objects_repushed, 0u);
  EXPECT_EQ(report.removes_applied, 0u);
}

}  // namespace
}  // namespace hyrd::dist
