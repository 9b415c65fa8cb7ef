// The restore replay (StorageClient::on_provider_restored) driven through
// real clients: what each kind of update-log record does, that a failed
// record stays pending for the retry, and two regressions the replay used
// to get wrong for HyRD (shared dedup content, hot copies).
#include <gtest/gtest.h>

#include "cloud/profiles.h"
#include "common/checksum.h"
#include "core/duracloud_client.h"
#include "core/hyrd_client.h"
#include "core/racs_client.h"

namespace hyrd::core {
namespace {

constexpr const char* kDuraContainer = "duracloud-data";

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() {
    cloud::install_standard_four(registry_, 41);
    session_ = std::make_unique<gcs::MultiCloudSession>(registry_);
  }

  cloud::SimProvider* provider(const std::string& name) {
    return registry_.find(name);
  }

  /// Whether `name` holds an object, read straight from its store.
  bool holds(const std::string& name, const std::string& container,
             const std::string& object) {
    return provider(name)->raw_store().object_size(container, object)
        .has_value();
  }

  cloud::CloudRegistry registry_;
  std::unique_ptr<gcs::MultiCloudSession> session_;
};

/// The location of `path`'s copy on `provider` (the test's file has one).
meta::FragmentLocation location_on(const StorageClient& client,
                                   const std::string& path,
                                   const std::string& provider) {
  const auto m = client.stat(path);
  for (const auto& loc : m->locations) {
    if (loc.provider == provider) return loc;
  }
  ADD_FAILURE() << path << " has no copy on " << provider;
  return {};
}

TEST_F(RecoveryTest, ResyncRepushesReplicatedObject) {
  DuraCloudClient client(*session_);
  ASSERT_TRUE(client.put("/d/f", common::patterned(2048, 1)).status.is_ok());
  const std::string down = "WindowsAzure";
  provider(down)->set_online(false);
  const auto data = common::patterned(2048, 2);
  ASSERT_TRUE(client.put("/d/f", data).status.is_ok());

  provider(down)->set_online(true);
  provider(down)->reset_counters();
  const auto restore = client.on_provider_restored(down);
  ASSERT_TRUE(restore.status.is_ok());
  EXPECT_GT(restore.latency, 0);
  EXPECT_TRUE(client.update_log().pending_for(down).empty());
  // The replica and the directory block, nothing else.
  EXPECT_EQ(provider(down)->counters().puts, 2u);
  EXPECT_EQ(provider(down)->counters().bytes_written,
            data.size() + client.stat("//meta//d")->size);

  // Azure now serves the file by itself.
  provider("Aliyun")->set_online(false);
  const auto r = client.get("/d/f");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, data);
}

TEST_F(RecoveryTest, ResyncRebuildsErasureFragment) {
  RACSClient client(*session_);
  ASSERT_TRUE(
      client.put("/d/big", common::patterned(3 << 20, 1)).status.is_ok());
  const std::string down = client.stat("/d/big")->locations.back().provider;
  provider(down)->set_online(false);
  const auto data = common::patterned(3 << 20, 2);
  ASSERT_TRUE(client.put("/d/big", data).status.is_ok());

  provider(down)->set_online(true);
  ASSERT_TRUE(client.on_provider_restored(down).status.is_ok());
  EXPECT_TRUE(client.update_log().pending_for(down).empty());
  const auto m = *client.stat("/d/big");
  for (std::size_t i = 0; i < m.locations.size(); ++i) {
    if (m.locations[i].provider != down) continue;
    const auto stored = provider(down)->raw_store().get(
        "racs-data", m.locations[i].object_name);
    ASSERT_TRUE(stored.is_ok());
    EXPECT_EQ(common::crc32c(stored.value()), m.fragment_crcs[i]);
  }

  // The rebuilt fragment makes single-failure reads work again.
  provider(m.locations.front().provider)->set_online(false);
  const auto r = client.get("/d/big");
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.data, data);
}

TEST_F(RecoveryTest, ResyncAppliesLoggedRemoves) {
  DuraCloudClient client(*session_);
  ASSERT_TRUE(client.put("/d/f", common::patterned(512, 3)).status.is_ok());
  const std::string down = "WindowsAzure";
  const auto object = location_on(client, "/d/f", down).object_name;
  provider(down)->set_online(false);
  ASSERT_TRUE(client.remove("/d/f").status.is_ok());
  provider(down)->set_online(true);
  EXPECT_TRUE(holds(down, kDuraContainer, object));  // stale

  provider(down)->reset_counters();
  ASSERT_TRUE(client.on_provider_restored(down).status.is_ok());
  EXPECT_EQ(provider(down)->counters().removes, 1u);
  EXPECT_FALSE(holds(down, kDuraContainer, object));
  EXPECT_TRUE(client.update_log().pending_for(down).empty());
}

TEST_F(RecoveryTest, ResyncSkipsDeletedFiles) {
  // Azure misses the put, comes back without a replay, and the file is
  // removed: its put record outlives the file and must push nothing.
  DuraCloudClient client(*session_);
  const std::string down = "WindowsAzure";
  provider(down)->set_online(false);
  ASSERT_TRUE(client.put("/d/f", common::patterned(100, 4)).status.is_ok());
  const auto object = location_on(client, "/d/f", down).object_name;
  provider(down)->set_online(true);
  ASSERT_TRUE(client.remove("/d/f").status.is_ok());

  provider(down)->reset_counters();
  ASSERT_TRUE(client.on_provider_restored(down).status.is_ok());
  EXPECT_EQ(provider(down)->counters().puts, 1u);  // the directory block
  EXPECT_FALSE(holds(down, kDuraContainer, object));
  EXPECT_TRUE(client.update_log().pending_for(down).empty());
}

TEST_F(RecoveryTest, ResyncKeepsAFailedCleanupRemovePending) {
  // As above, but Azure kept a stale copy of the deleted file. The replay
  // must delete it; Azure drops out right after the replay re-pushes
  // /d/e, so the remove fails and its record must stay pending instead of
  // leaving the object billed forever.
  DuraCloudClient client(*session_);
  const std::string down = "WindowsAzure";
  auto* azure = provider(down);
  azure->set_online(false);
  ASSERT_TRUE(client.put("/d/e", common::patterned(100, 4)).status.is_ok());
  ASSERT_TRUE(client.put("/d/f", common::patterned(100, 5)).status.is_ok());
  const auto repushed = location_on(client, "/d/e", down).object_name;
  const auto object = location_on(client, "/d/f", down).object_name;
  azure->set_online(true);
  ASSERT_TRUE(client.remove("/d/f").status.is_ok());
  ASSERT_TRUE(azure->raw_store()
                  .put(kDuraContainer, object, common::patterned(100, 5))
                  .is_ok());

  azure->set_op_hook([&](cloud::OpKind op, const cloud::ObjectKey& key) {
    if (op == cloud::OpKind::kPut && key.name == repushed) {
      azure->set_online(false);
    }
  });
  const auto first = client.on_provider_restored(down);
  azure->set_op_hook(nullptr);
  EXPECT_FALSE(first.status.is_ok());
  const auto pending = client.update_log().pending_for(down);
  ASSERT_FALSE(pending.empty());
  EXPECT_EQ(pending.front().path, "/d/f");
  EXPECT_TRUE(holds(down, kDuraContainer, object));

  azure->set_online(true);
  ASSERT_TRUE(client.on_provider_restored(down).status.is_ok());
  EXPECT_TRUE(client.update_log().pending_for(down).empty());
  EXPECT_FALSE(holds(down, kDuraContainer, object));
}

TEST_F(RecoveryTest, ResyncRegeneratesMetadataBlock) {
  // HyRD replicates directory blocks outside the metadata store, so the
  // replay rebuilds them from the store's current serialization.
  HyRDClient client(*session_);
  const auto& targets = client.replica_targets();
  ASSERT_EQ(targets.size(), 2u);
  const std::string down = session_->client(targets[1]).provider_name();
  const std::string up = session_->client(targets[0]).provider_name();
  provider(down)->set_online(false);
  ASSERT_TRUE(client.put("/d/f", common::patterned(100, 6)).status.is_ok());
  ASSERT_TRUE(client.put("/d/g", common::patterned(200, 7)).status.is_ok());

  provider(down)->set_online(true);
  ASSERT_TRUE(client.on_provider_restored(down).status.is_ok());
  EXPECT_TRUE(client.update_log().pending_for(down).empty());
  const std::string block = StorageClient::meta_block_object_name("/d");
  const auto& container = client.config().meta_container;
  const auto regenerated = provider(down)->raw_store().get(container, block);
  const auto current = provider(up)->raw_store().get(container, block);
  ASSERT_TRUE(regenerated.is_ok());
  ASSERT_TRUE(current.is_ok());
  EXPECT_EQ(regenerated.value(), current.value());
}

TEST_F(RecoveryTest, ResyncKeepsProgressWhenAPutFails) {
  // Five files and their directory block are pending; the put of file 2
  // fails. Files 0 and 1 were applied, so the retry must replay exactly
  // files 2..4 and the block.
  constexpr std::size_t kFiles = 5;
  constexpr std::size_t kFailAt = 2;
  DuraCloudClient client(*session_);
  const std::string down = "WindowsAzure";
  auto* azure = provider(down);
  azure->set_online(false);
  for (std::size_t i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(client.put("/d/f" + std::to_string(i),
                           common::patterned(100, i))
                    .status.is_ok());
  }
  // Azure drops out once the put before the failing one has landed.
  const auto last_ok =
      location_on(client, "/d/f" + std::to_string(kFailAt - 1), down)
          .object_name;
  azure->set_online(true);
  azure->set_op_hook([&](cloud::OpKind op, const cloud::ObjectKey& key) {
    if (op == cloud::OpKind::kPut && key.name == last_ok) {
      azure->set_online(false);
    }
  });
  const auto first = client.on_provider_restored(down);
  azure->set_op_hook(nullptr);
  azure->set_online(true);
  EXPECT_FALSE(first.status.is_ok());
  EXPECT_EQ(azure->counters().puts, kFailAt);
  EXPECT_EQ(client.update_log().pending_for(down).size(), kFiles - kFailAt + 1);

  azure->reset_counters();
  ASSERT_TRUE(client.on_provider_restored(down).status.is_ok());
  EXPECT_EQ(azure->counters().puts, kFiles - kFailAt + 1);
  EXPECT_TRUE(client.update_log().pending_for(down).empty());
}

TEST_F(RecoveryTest, ResyncFailsWhileProviderStillOffline) {
  DuraCloudClient client(*session_);
  provider("Aliyun")->set_online(false);
  EXPECT_EQ(client.on_provider_restored("Aliyun").status.code(),
            common::StatusCode::kFailedPrecondition);
}

TEST_F(RecoveryTest, ResyncUnknownProviderFails) {
  DuraCloudClient client(*session_);
  EXPECT_EQ(client.on_provider_restored("Nimbus").status.code(),
            common::StatusCode::kInvalidArgument);
}

TEST_F(RecoveryTest, ResyncEmptyLogIsCleanNoop) {
  DuraCloudClient client(*session_);
  provider("Aliyun")->reset_counters();
  const auto restore = client.on_provider_restored("Aliyun");
  EXPECT_TRUE(restore.status.is_ok());
  EXPECT_EQ(restore.latency, 0);
  EXPECT_EQ(provider("Aliyun")->counters().total_ops(), 0u);
}

TEST_F(RecoveryTest, DedupRestoreLeavesSharedContentIntact) {
  // /d/b aliases A's replicas. Overwriting /d/a with B while Azure is down
  // must not make the replay write B's bytes into Azure's copy of A.
  HyRDConfig config;
  config.dedup_enabled = true;
  HyRDClient client(*session_, config);
  const auto a = common::patterned(4096, 1);
  const auto b = common::patterned(4096, 2);
  provider("WindowsAzure")->set_online(false);
  ASSERT_TRUE(client.put("/d/a", a).status.is_ok());
  ASSERT_TRUE(client.put("/d/b", a).status.is_ok());
  ASSERT_TRUE(client.put("/d/a", b).status.is_ok());
  provider("WindowsAzure")->set_online(true);
  client.on_provider_restored("WindowsAzure");
  EXPECT_TRUE(client.update_log().pending_for("WindowsAzure").empty());

  provider("Aliyun")->set_online(false);
  const auto got_b = client.get("/d/b");
  ASSERT_TRUE(got_b.status.is_ok()) << got_b.status.to_string();
  EXPECT_EQ(got_b.data, a);
  const auto got_a = client.get("/d/a");
  ASSERT_TRUE(got_a.status.is_ok()) << got_a.status.to_string();
  EXPECT_EQ(got_a.data, b);
}

TEST_F(RecoveryTest, HotCopyRemovedDuringOutageIsDeletedOnRestore) {
  HyRDConfig config;
  config.hot_promotion_enabled = true;
  HyRDClient client(*session_, config);
  ASSERT_TRUE(
      client.put("/d/big", common::patterned(2 << 20, 8)).status.is_ok());
  for (std::uint32_t i = 0; i < client.config().hot_promotion_reads; ++i) {
    ASSERT_TRUE(client.get("/d/big").status.is_ok());
  }
  ASSERT_TRUE(client.has_hot_copy("/d/big"));
  const std::string hot =
      session_->client(client.replica_targets().front()).provider_name();
  const std::string object = dist::fragment_object_name("/d/big", 'h', 0);
  const auto& container = client.config().data_container;
  ASSERT_TRUE(holds(hot, container, object));

  provider(hot)->set_online(false);
  ASSERT_TRUE(client.remove("/d/big").status.is_ok());
  provider(hot)->set_online(true);
  client.on_provider_restored(hot);
  EXPECT_FALSE(holds(hot, container, object));
  EXPECT_TRUE(client.update_log().pending_for(hot).empty());
}

}  // namespace
}  // namespace hyrd::core
