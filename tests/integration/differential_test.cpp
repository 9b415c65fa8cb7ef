// Differential testing: every storage scheme must behave exactly like a
// trivial in-memory file map under an arbitrary interleaving of put / get
// / update / remove / stat / list — with and without provider churn.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cloud/outage.h"
#include "cloud/profiles.h"
#include "core/depsky_client.h"
#include "core/duracloud_client.h"
#include "core/hyrd_client.h"
#include "core/nccloud_client.h"
#include "core/racs_client.h"
#include "core/single_client.h"

namespace hyrd {
namespace {

using ClientFactory = std::function<std::unique_ptr<core::StorageClient>(
    gcs::MultiCloudSession&)>;

struct SchemeParam {
  const char* name;
  ClientFactory factory;
  bool survives_single_outage;
};

// Keeps the printed parameter (and so the test name) free of the raw-byte
// dump gtest falls back to, which embeds addresses that change per run.
void PrintTo(const SchemeParam& param, std::ostream* os) { *os << param.name; }

class DifferentialTest : public ::testing::TestWithParam<SchemeParam> {};

void run_differential(core::StorageClient& client,
                      cloud::CloudRegistry& registry, bool with_churn,
                      std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::map<std::string, common::Bytes> oracle;

  std::unique_ptr<cloud::RandomOutageInjector> churn;
  if (with_churn) {
    churn = std::make_unique<cloud::RandomOutageInjector>(
        registry, seed ^ 0xabcd, 0.15, 0.6, registry.size() - 1);
  }

  for (int step = 0; step < 120; ++step) {
    if (churn) {
      churn->step();
      // Prompt consistency updates, as the paper's recovery design runs
      // them upon provider return.
      for (const auto& p : registry.all()) {
        if (p->online()) client.on_provider_restored(p->name());
      }
    }
    const std::string path =
        "/diff/d" + std::to_string(rng.uniform_int(0, 2)) + "/f" +
        std::to_string(rng.uniform_int(0, 7));
    const double action = rng.uniform();

    if (action < 0.40 || !oracle.contains(path)) {
      const std::uint64_t size = rng.chance(0.25)
                                     ? rng.uniform_int(1u << 20, 3u << 20)
                                     : rng.uniform_int(1, 32 << 10);
      common::Bytes data = common::patterned(size, rng());
      auto w = client.put(path, data);
      if (w.status.is_ok()) {
        oracle[path] = std::move(data);
      }
    } else if (action < 0.65) {
      auto r = client.get(path);
      if (r.status.is_ok()) {
        ASSERT_EQ(r.data, oracle[path]) << path << " step " << step;
      }
    } else if (action < 0.80) {
      auto& content = oracle[path];
      if (content.empty()) continue;
      const std::uint64_t len =
          rng.uniform_int(1, std::min<std::uint64_t>(content.size(), 4096));
      const std::uint64_t offset = rng.uniform_int(0, content.size() - len);
      common::Bytes patch = common::patterned(len, rng());
      auto u = client.update(path, offset, patch);
      if (u.status.is_ok()) {
        std::copy(patch.begin(), patch.end(),
                  content.begin() + static_cast<std::ptrdiff_t>(offset));
      }
    } else if (action < 0.90) {
      auto rm = client.remove(path);
      if (rm.status.is_ok()) oracle.erase(path);
    } else {
      // stat / list must mirror the oracle exactly (local metadata).
      ASSERT_EQ(client.stat(path).has_value(), oracle.contains(path))
          << path << " step " << step;
      ASSERT_EQ(client.list().size(), oracle.size()) << "step " << step;
    }
  }

  // Final: everything online, resync, full content check.
  for (const auto& p : registry.all()) p->set_online(true);
  for (const auto& p : registry.all()) client.on_provider_restored(p->name());
  for (const auto& [path, data] : oracle) {
    auto r = client.get(path);
    ASSERT_TRUE(r.status.is_ok()) << path << ": " << r.status.to_string();
    EXPECT_EQ(r.data, data) << path;
  }
}

TEST_P(DifferentialTest, MatchesOracleHealthyFleet) {
  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, 163);
  gcs::MultiCloudSession session(registry);
  auto client = GetParam().factory(session);
  run_differential(*client, registry, /*with_churn=*/false, 163);
}

TEST_P(DifferentialTest, MatchesOracleUnderChurn) {
  if (!GetParam().survives_single_outage) {
    GTEST_SKIP() << "scheme has no redundancy; churn loses availability";
  }
  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, 167);
  gcs::MultiCloudSession session(registry);
  auto client = GetParam().factory(session);
  run_differential(*client, registry, /*with_churn=*/true, 167);
}

TEST_P(DifferentialTest, SharedOpContract) {
  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, 179);
  gcs::MultiCloudSession session(registry);
  auto client = GetParam().factory(session);
  const auto patch = common::patterned(16, 2);

  // A missing path is kNotFound from every op, and each counts a failure.
  std::uint64_t failed = client->stats_snapshot().failed_ops;
  EXPECT_EQ(client->get("/d/none").status.code(),
            common::StatusCode::kNotFound);
  EXPECT_EQ(client->stats_snapshot().failed_ops, ++failed);
  EXPECT_EQ(client->update("/d/none", 0, patch).status.code(),
            common::StatusCode::kNotFound);
  EXPECT_EQ(client->stats_snapshot().failed_ops, ++failed);
  EXPECT_EQ(client->remove("/d/none").status.code(),
            common::StatusCode::kNotFound);
  EXPECT_EQ(client->stats_snapshot().failed_ops, ++failed);

  // An update that would grow the file is rejected before any provider op
  // and leaves the metadata untouched.
  ASSERT_TRUE(client->put("/d/a", common::patterned(100, 1)).status.is_ok());
  const auto before = client->stat("/d/a");
  const auto provider_ops = [&] {
    std::uint64_t ops = 0;
    for (const auto& p : registry.all()) ops += p->counters().total_ops();
    return ops;
  };
  const std::uint64_t ops_before = provider_ops();
  EXPECT_EQ(client->update("/d/a", 90, patch).status.code(),
            common::StatusCode::kInvalidArgument);
  EXPECT_EQ(client->stats_snapshot().failed_ops, ++failed);
  EXPECT_EQ(provider_ops(), ops_before);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(client->stat("/d/a")->version, before->version);
}

/// "container/name" of every object each provider holds, in fleet order.
std::vector<std::set<std::string>> object_names(
    const cloud::CloudRegistry& registry) {
  static constexpr const char* kContainers[] = {
      "hyrd-data",   "hyrd-meta",    "racs-data",  "duracloud-data",
      "depsky-data", "nccloud-data", "single-data"};
  std::vector<std::set<std::string>> out;
  for (const auto& p : registry.all()) {
    auto& names = out.emplace_back();
    for (const char* container : kContainers) {
      auto listed = p->raw_store().list(container);
      if (!listed.is_ok()) continue;
      for (const auto& name : listed.value()) {
        names.insert(std::string(container) + "/" + name);
      }
    }
  }
  return out;
}

TEST_P(DifferentialTest, RemoveDuringOutageLeavesNoOrphanAfterRestore) {
  // put -> one fragment holder offline -> remove -> restore must leave the
  // fleet holding what put -> remove leaves with no outage. Names only: a
  // directory block written during the outage may be stale in size.
  const auto run = [&](bool outage) {
    cloud::CloudRegistry registry;
    cloud::install_standard_four(registry, 173);
    gcs::MultiCloudSession session(registry);
    auto client = GetParam().factory(session);
    const auto put = client->put("/d/a", common::patterned(10 << 10, 1));
    EXPECT_TRUE(put.status.is_ok());
    const std::string holder = put.meta.locations.front().provider;
    if (outage) registry.find(holder)->set_online(false);
    EXPECT_TRUE(client->remove("/d/a").status.is_ok());
    if (outage) {
      registry.find(holder)->set_online(true);
      client->on_provider_restored(holder);
    }
    return object_names(registry);
  };
  EXPECT_EQ(run(/*outage=*/true), run(/*outage=*/false));
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, DifferentialTest,
    ::testing::Values(
        SchemeParam{"HyRD",
                    [](gcs::MultiCloudSession& s) {
                      return std::make_unique<core::HyRDClient>(s);
                    },
                    true},
        SchemeParam{"HyRDDedup",
                    [](gcs::MultiCloudSession& s) {
                      core::HyRDConfig config;
                      config.dedup_enabled = true;
                      return std::make_unique<core::HyRDClient>(s, config);
                    },
                    true},
        SchemeParam{"RACS",
                    [](gcs::MultiCloudSession& s) {
                      return std::make_unique<core::RACSClient>(s);
                    },
                    true},
        SchemeParam{"DuraCloud",
                    [](gcs::MultiCloudSession& s) {
                      return std::make_unique<core::DuraCloudClient>(s);
                    },
                    true},
        SchemeParam{"DepSky",
                    [](gcs::MultiCloudSession& s) {
                      return std::make_unique<core::DepSkyClient>(s);
                    },
                    true},
        SchemeParam{"NCCloud",
                    [](gcs::MultiCloudSession& s) {
                      return std::make_unique<core::NCCloudClient>(s);
                    },
                    true},
        SchemeParam{"Single",
                    [](gcs::MultiCloudSession& s) {
                      return std::make_unique<core::SingleCloudClient>(
                          s, "Aliyun");
                    },
                    false}),
    [](const auto& scheme) { return std::string(scheme.param.name); });

}  // namespace
}  // namespace hyrd
