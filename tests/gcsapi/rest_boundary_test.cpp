// REST-boundary fidelity for the traffic the scheme clients really issue.
// CloudClient executes ops without re-encoding them on every call, so this
// test carries the check instead: every (op, key) that all six clients
// send to the providers — create and list included — must survive
// encode -> serialize -> parse -> decode unchanged.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cloud/profiles.h"
#include "core/depsky_client.h"
#include "core/duracloud_client.h"
#include "core/hyrd_client.h"
#include "core/nccloud_client.h"
#include "core/racs_client.h"
#include "core/single_client.h"
#include "gcsapi/rest_codec.h"
#include "gcsapi/session.h"

namespace hyrd::gcs {
namespace {

using cloud::ObjectKey;
using cloud::OpKind;

/// Every (op, key) seen by the fleet's op hooks. Hooks run on whichever
/// thread issues the op, hence the mutex.
class OpCapture {
 public:
  void install(cloud::CloudRegistry& registry) {
    for (const auto& p : registry.all()) {
      p->set_op_hook([this](OpKind op, const ObjectKey& key) {
        std::lock_guard lock(mu_);
        keys_.push_back({op, key});
      });
    }
  }
  static void uninstall(cloud::CloudRegistry& registry) {
    for (const auto& p : registry.all()) p->set_op_hook(nullptr);
  }
  /// Containers the clients created, for the list pass.
  std::set<std::string> created() {
    std::lock_guard lock(mu_);
    std::set<std::string> out;
    for (const auto& [op, key] : keys_) {
      if (op == OpKind::kCreate) out.insert(key.container);
    }
    return out;
  }
  std::vector<std::pair<OpKind, ObjectKey>> take() {
    std::lock_guard lock(mu_);
    return std::move(keys_);
  }

 private:
  std::mutex mu_;
  std::vector<std::pair<OpKind, ObjectKey>> keys_;
};

void drive(core::StorageClient& client) {
  const auto small = common::patterned(6 * 1024, 3);
  const auto large = common::patterned(3 << 20, 4);
  ASSERT_TRUE(client.put("/docs/a note.txt", small).status.is_ok());
  ASSERT_TRUE(client.put("/media/big 100%.bin", large).status.is_ok());
  EXPECT_TRUE(client.get("/docs/a note.txt").status.is_ok());
  EXPECT_TRUE(client.get("/media/big 100%.bin").status.is_ok());
  EXPECT_TRUE(client.update("/docs/a note.txt", 10, common::patterned(64, 5))
                  .status.is_ok());
  EXPECT_TRUE(client.update("/media/big 100%.bin", 4096,
                            common::patterned(512, 6))
                  .status.is_ok());
  EXPECT_TRUE(client.remove("/docs/a note.txt").status.is_ok());
  EXPECT_TRUE(client.remove("/media/big 100%.bin").status.is_ok());
}

TEST(RestCodec, EveryOpTheSixClientsIssueRoundTrips) {
  using Factory = std::unique_ptr<core::StorageClient> (*)(MultiCloudSession&);
  const std::vector<std::pair<const char*, Factory>> schemes = {
      {"Single",
       [](MultiCloudSession& s) -> std::unique_ptr<core::StorageClient> {
         return std::make_unique<core::SingleCloudClient>(s, "Aliyun");
       }},
      {"DuraCloud",
       [](MultiCloudSession& s) -> std::unique_ptr<core::StorageClient> {
         return std::make_unique<core::DuraCloudClient>(s);
       }},
      {"RACS",
       [](MultiCloudSession& s) -> std::unique_ptr<core::StorageClient> {
         return std::make_unique<core::RACSClient>(s);
       }},
      {"HyRD",
       [](MultiCloudSession& s) -> std::unique_ptr<core::StorageClient> {
         return std::make_unique<core::HyRDClient>(s);
       }},
      {"DepSky",
       [](MultiCloudSession& s) -> std::unique_ptr<core::StorageClient> {
         return std::make_unique<core::DepSkyClient>(s);
       }},
      {"NCCloud",
       [](MultiCloudSession& s) -> std::unique_ptr<core::StorageClient> {
         return std::make_unique<core::NCCloudClient>(s);
       }},
  };

  std::set<OpKind> kinds_seen;
  std::size_t checked = 0;
  for (const auto& [name, factory] : schemes) {
    SCOPED_TRACE(name);
    cloud::CloudRegistry registry;
    cloud::install_standard_four(registry, 11);
    OpCapture capture;
    capture.install(registry);  // before the client: it creates containers
    MultiCloudSession session(registry);
    auto client = factory(session);
    drive(*client);
    const std::set<std::string> containers = capture.created();
    ASSERT_FALSE(containers.empty());
    for (std::size_t i = 0; i < session.client_count(); ++i) {
      for (const auto& container : containers) {
        (void)session.client(i).list(container);
      }
    }
    OpCapture::uninstall(registry);

    const auto ops = capture.take();
    ASSERT_FALSE(ops.empty());
    for (const auto& [op, key] : ops) {
      const RestRequest encoded = encode_op(op, key, {});
      auto parsed = parse_request(serialize(encoded));
      ASSERT_TRUE(parsed.is_ok()) << key.str() << ": "
                                  << parsed.status().to_string();
      EXPECT_EQ(parsed.value(), encoded) << key.str();
      auto decoded = decode_op(parsed.value());
      ASSERT_TRUE(decoded.is_ok()) << key.str() << ": "
                                   << decoded.status().to_string();
      EXPECT_EQ(decoded.value().op, op) << key.str();
      EXPECT_EQ(decoded.value().key, key) << key.str();
      kinds_seen.insert(op);
      ++checked;
    }
  }
  // Every one of the five GCS-API functions went through the check.
  EXPECT_EQ(kinds_seen, (std::set<OpKind>{OpKind::kList, OpKind::kGet,
                                          OpKind::kCreate, OpKind::kPut,
                                          OpKind::kRemove}));
  EXPECT_GT(checked, 100u);
}

}  // namespace
}  // namespace hyrd::gcs
