// Tail-latency behaviour of the order-statistic engine at the scheme
// layer: first-k erasure reads under a provider brownout, hedged replica
// reads against a browned-out primary, and same-seed determinism of group
// writes. (The engine-level order-statistic contracts live in
// tests/gcsapi/async_batch_test.cpp.)
#include <gtest/gtest.h>

#include <memory>

#include "cloud/profiles.h"
#include "dist/erasure_scheme.h"
#include "dist/replication.h"

namespace hyrd::dist {
namespace {

/// Two independent fleets from the same seed: every provider draws the
/// same latency stream, so a strategy knob is the only difference between
/// the "baseline" and "aggressive" observations.
struct TwinFleets {
  cloud::CloudRegistry reg_a;
  cloud::CloudRegistry reg_b;
  std::unique_ptr<gcs::MultiCloudSession> sess_a;
  std::unique_ptr<gcs::MultiCloudSession> sess_b;

  explicit TwinFleets(std::uint64_t seed) {
    cloud::install_standard_four(reg_a, seed);
    cloud::install_standard_four(reg_b, seed);
    sess_a = std::make_unique<gcs::MultiCloudSession>(reg_a);
    sess_b = std::make_unique<gcs::MultiCloudSession>(reg_b);
    sess_a->ensure_container_everywhere("data");
    sess_b->ensure_container_everywhere("data");
  }
};

TEST(TailLatency, FastestKErasureReadCutsBrownoutTail) {
  // One provider holding a preferred data fragment browns out (reachable,
  // 25x slower). The legacy kPreferredK read waits for it; kFastestK
  // completes at the 3rd fastest of all four fragments and strictly beats
  // the max aggregation, returning byte-identical data.
  TwinFleets twins(501);
  const auto data = common::patterned(256 * 1024, 9);
  ErasureScheme preferred("data", {.k = 3, .m = 1});
  ErasureScheme fastest("data", {.k = 3, .m = 1});
  fastest.set_read_strategy(ErasureReadStrategy::kFastestK);

  auto wa = preferred.write(*twins.sess_a, "/f", data, {0, 1, 2, 3});
  auto wb = fastest.write(*twins.sess_b, "/f", data, {0, 1, 2, 3});
  ASSERT_TRUE(wa.status.is_ok());
  ASSERT_TRUE(wb.status.is_ok());

  // Slot 0 is a data fragment both strategies want.
  const std::string victim = twins.sess_a->client(0).provider_name();
  twins.reg_a.find(victim)->set_latency_scale(25.0);
  twins.reg_b.find(victim)->set_latency_scale(25.0);

  auto ra = preferred.read(*twins.sess_a, wa.meta);
  auto rb = fastest.read(*twins.sess_b, wb.meta);
  ASSERT_TRUE(ra.status.is_ok());
  ASSERT_TRUE(rb.status.is_ok());
  EXPECT_EQ(ra.data, data);
  EXPECT_EQ(rb.data, data);

  // The brownout is a tail event, not an outage: nobody is degraded, but
  // only the first-k read dodges the slow fragment.
  EXPECT_FALSE(ra.degraded);
  EXPECT_FALSE(rb.degraded);
  EXPECT_LT(rb.latency, ra.latency);
  EXPECT_GT(rb.saved, 0);
}

TEST(TailLatency, FastestKMatchesPreferredKOnHealthyFleet) {
  // Without a tail event the two strategies must agree on bytes, and
  // first-k may only ever shave latency, never add it.
  TwinFleets twins(503);
  const auto data = common::patterned(96 * 1024, 4);
  ErasureScheme preferred("data", {.k = 3, .m = 1});
  ErasureScheme fastest("data", {.k = 3, .m = 1});
  fastest.set_read_strategy(ErasureReadStrategy::kFastestK);

  auto wa = preferred.write(*twins.sess_a, "/f", data, {0, 1, 2, 3});
  auto wb = fastest.write(*twins.sess_b, "/f", data, {0, 1, 2, 3});
  ASSERT_TRUE(wa.status.is_ok());
  ASSERT_TRUE(wb.status.is_ok());

  auto ra = preferred.read(*twins.sess_a, wa.meta);
  auto rb = fastest.read(*twins.sess_b, wb.meta);
  ASSERT_TRUE(ra.status.is_ok());
  ASSERT_TRUE(rb.status.is_ok());
  EXPECT_EQ(ra.data, data);
  EXPECT_EQ(rb.data, data);
  EXPECT_LE(rb.latency, ra.latency);
}

class HedgedReadTest : public ::testing::Test {
 protected:
  /// Replica pair with a deterministic primary: whichever of the two has
  /// the lower advertised GET latency is the one the read tries first.
  static constexpr std::uint64_t kSize = 64 * 1024;

  std::size_t primary_of(gcs::MultiCloudSession& session,
                         std::size_t a, std::size_t b) {
    const auto expected = [&](std::size_t i) {
      return session.client(i).provider()->latency_model().expected(
          cloud::OpKind::kGet, kSize);
    };
    return expected(a) <= expected(b) ? a : b;
  }
};

TEST_F(HedgedReadTest, HedgeBeatsBrownedOutPrimary) {
  // The primary browns out (25x slower but still answering). With hedging
  // off the read pays the full browned-out response; with the default
  // policy a backup read fires at 3x the primary's expected latency and
  // wins. Same seed on both fleets: the brownout is the only variable.
  TwinFleets twins(521);
  const auto data = common::patterned(kSize, 11);
  ReplicationScheme unhedged("data");
  ReplicationScheme hedged("data");
  unhedged.set_hedge({.enabled = false});

  auto wa = unhedged.write(*twins.sess_a, "/f", data, {0, 1});
  auto wb = hedged.write(*twins.sess_b, "/f", data, {0, 1});
  ASSERT_TRUE(wa.status.is_ok());
  ASSERT_TRUE(wb.status.is_ok());

  const std::size_t primary = primary_of(*twins.sess_a, 0, 1);
  const std::string victim = twins.sess_a->client(primary).provider_name();
  twins.reg_a.find(victim)->set_latency_scale(25.0);
  twins.reg_b.find(victim)->set_latency_scale(25.0);

  auto* backup = twins.reg_b.find(
      twins.sess_b->client(primary == 0 ? 1 : 0).provider_name());
  auto* slow = twins.reg_b.find(victim);
  slow->reset_counters();
  backup->reset_counters();

  auto ra = unhedged.read(*twins.sess_a, wa.meta);
  auto rb = hedged.read(*twins.sess_b, wb.meta);
  ASSERT_TRUE(ra.status.is_ok());
  ASSERT_TRUE(rb.status.is_ok());
  EXPECT_EQ(ra.data, data);
  EXPECT_EQ(rb.data, data);
  EXPECT_LT(rb.latency, ra.latency);
  EXPECT_GT(rb.saved, 0);
  // A hedge win is a performance event, not an availability event.
  EXPECT_FALSE(rb.degraded);
  // Every op runs to completion, so the slow primary's GET is served and
  // metered for billing next to the hedge that beat it. (The counters are
  // the audit: a 64 KiB GET can cost $0 under a provider's price tiers.)
  for (auto* p : {slow, backup}) {
    EXPECT_EQ(p->counters().gets, 1u) << p->name();
    EXPECT_EQ(p->counters().bytes_read, kSize) << p->name();
  }
}

TEST(TailLatency, GroupWriteLatenciesAreSeedDeterministic) {
  // A group commit puts several items on each provider in one batch. Ops
  // run in submit order, so each provider draws its latency stream in the
  // same order on every run: twin same-seed fleets must agree on every
  // entry's latency and on the batch latency.
  TwinFleets twins(557);
  ReplicationScheme scheme("data");
  const auto group = [] {
    std::vector<ReplicationScheme::GroupWrite> items;
    for (int i = 0; i < 8; ++i) {
      items.push_back({"/g" + std::to_string(i),
                       common::Buffer::from(common::patterned(
                           1024 * static_cast<std::size_t>(1 + i), 19 + i))});
    }
    return items;
  };
  common::SimDuration batch_a = 0;
  common::SimDuration batch_b = 0;
  const auto ra = scheme.write_many(*twins.sess_a, group(), {0, 1, 2}, &batch_a);
  const auto rb = scheme.write_many(*twins.sess_b, group(), {0, 1, 2}, &batch_b);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_TRUE(ra[i].result.status.is_ok());
    ASSERT_TRUE(rb[i].result.status.is_ok());
    EXPECT_EQ(ra[i].result.latency, rb[i].result.latency) << "entry " << i;
  }
  EXPECT_EQ(batch_a, batch_b);
  EXPECT_GT(batch_a, 0);
}

}  // namespace
}  // namespace hyrd::dist
