// Engine equivalence: the aggressive completion-ordered knobs (first-k
// erasure reads, hedged replica reads) must be
// *observably* identical to the default wait-for-all configuration in
// everything except latency — byte-identical reads, identical durable
// provider state, identical write-side traffic and billing. The paper's
// comparability argument (Fig. 5/6) depends on this: the engine shifts
// when a call reports completion, never what the fleet ends up storing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cloud/profiles.h"
#include "core/hyrd_client.h"

namespace hyrd {
namespace {

struct Fleet {
  cloud::CloudRegistry registry;
  std::unique_ptr<gcs::MultiCloudSession> session;
  std::unique_ptr<core::HyRDClient> client;

  Fleet(std::uint64_t seed, const core::HyRDConfig& config) {
    cloud::install_standard_four(registry, seed);
    session = std::make_unique<gcs::MultiCloudSession>(registry);
    client = std::make_unique<core::HyRDClient>(*session, config);
  }
};

core::HyRDConfig aggressive_config() {
  core::HyRDConfig c;
  c.erasure_read_strategy = dist::ErasureReadStrategy::kFastestK;
  // Hedge stays at defaults: enabled, but calibrated to fire only under
  // genuine brownouts/stalls, never under baseline jitter.
  return c;
}

TEST(EngineEquivalence, AggressiveKnobsAreByteAndStateIdentical) {
  constexpr std::uint64_t kSeed = 90210;
  Fleet defaults(kSeed, core::HyRDConfig{});
  Fleet aggressive(kSeed, aggressive_config());

  // A mixed workload crossing the small/large threshold in both
  // directions, with in-place updates and removes.
  common::Xoshiro256 rng(17);
  std::vector<std::pair<std::string, common::Bytes>> files;
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t size =
        (i % 3 == 0) ? rng.uniform_int(1u << 20, 3u << 20)   // erasure
                     : rng.uniform_int(1024, 256u << 10);    // replicated
    files.emplace_back("/eq/f" + std::to_string(i),
                       common::patterned(size, rng()));
  }

  for (const auto& [path, data] : files) {
    auto wd = defaults.client->put(path, data);
    auto wa = aggressive.client->put(path, data);
    ASSERT_TRUE(wd.status.is_ok());
    ASSERT_TRUE(wa.status.is_ok());
    EXPECT_EQ(wd.meta.redundancy, wa.meta.redundancy) << path;
    // Early ack must never report later than wait-for-all on the same
    // deterministic latency stream.
    EXPECT_LE(wa.latency, wd.latency) << path;
  }

  // A few in-place updates (replicated and erasure paths both covered).
  for (std::size_t i : {1u, 3u}) {
    auto& [path, data] = files[i];
    const std::uint64_t len = std::min<std::uint64_t>(data.size(), 2048);
    common::Bytes patch = common::patterned(len, 999 + i);
    auto ud = defaults.client->update(path, 0, patch);
    auto ua = aggressive.client->update(path, 0, patch);
    ASSERT_EQ(ud.status.is_ok(), ua.status.is_ok()) << path;
    if (ud.status.is_ok()) {
      std::copy(patch.begin(), patch.end(), data.begin());
    }
  }

  // Every read must be byte-identical across configurations.
  for (const auto& [path, data] : files) {
    auto rd = defaults.client->get(path);
    auto ra = aggressive.client->get(path);
    ASSERT_TRUE(rd.status.is_ok()) << path << " " << rd.status.to_string();
    ASSERT_TRUE(ra.status.is_ok()) << path << " " << ra.status.to_string();
    EXPECT_EQ(rd.data, data) << path;
    EXPECT_EQ(ra.data, data) << path;
    EXPECT_FALSE(rd.degraded);
    EXPECT_FALSE(ra.degraded);
  }

  // Removes (early-acked on the aggressive fleet) must leave both fleets
  // with nothing. A remove that had not resolved when the early ack fired
  // is torn down and recorded for replay — whether that happens depends on
  // real-clock scheduling, so reconcile through the update log exactly as
  // a post-outage resync would. Equality must hold afterwards either way.
  for (std::size_t i : {0u, 5u}) {
    auto dd = defaults.client->remove(files[i].first);
    auto da = aggressive.client->remove(files[i].first);
    ASSERT_TRUE(dd.status.is_ok());
    ASSERT_TRUE(da.status.is_ok());
    EXPECT_TRUE(dd.unreachable_providers.empty());
    for (const auto& provider : da.unreachable_providers) {
      aggressive.client->on_provider_restored(provider);
    }
  }

  // Durable state is identical provider by provider: same objects, same
  // resident bytes. (GET-side traffic legitimately differs — first-k
  // issues up to m extra requests — but nothing write-side may.)
  for (const auto& pd : defaults.registry.all()) {
    auto* pa = aggressive.registry.find(pd->name());
    ASSERT_NE(pa, nullptr);
    EXPECT_EQ(pd->object_count(), pa->object_count()) << pd->name();
    EXPECT_EQ(pd->stored_bytes(), pa->stored_bytes()) << pd->name();
    EXPECT_EQ(pd->counters().puts, pa->counters().puts) << pd->name();
    EXPECT_EQ(pd->counters().bytes_written, pa->counters().bytes_written)
        << pd->name();
    EXPECT_EQ(pd->counters().removes, pa->counters().removes) << pd->name();
  }
}

TEST(EngineEquivalence, HealthyFleetNeverCancelsOrHedges) {
  // With default knobs on a healthy fleet the engine must be invisible:
  // every op runs to completion and no hedge fires, so request counts
  // match the paper's cost model exactly (k GETs per erasure read, 1 per
  // replica read).
  Fleet fleet(4242, core::HyRDConfig{});
  const auto small = common::patterned(64 * 1024, 1);
  const auto large = common::patterned(2u << 20, 2);
  ASSERT_TRUE(fleet.client->put("/a", small).status.is_ok());
  ASSERT_TRUE(fleet.client->put("/b", large).status.is_ok());
  for (const auto& p : fleet.registry.all()) p->reset_counters();

  ASSERT_TRUE(fleet.client->get("/a").status.is_ok());
  ASSERT_TRUE(fleet.client->get("/b").status.is_ok());

  std::uint64_t total_gets = 0;
  for (const auto& p : fleet.registry.all()) {
    total_gets += p->counters().gets;
  }
  // 1 replica GET for the small file + k GETs for the erasure stripe.
  core::HyRDConfig config;
  EXPECT_EQ(total_gets, 1u + config.geometry.k);
}

}  // namespace
}  // namespace hyrd
