#include "dist/erasure_scheme.h"

#include <gtest/gtest.h>

#include <numeric>

#include "cloud/profiles.h"
#include "common/checksum.h"
#include "common/copy_meter.h"

namespace hyrd::dist {
namespace {

class ErasureSchemeTest : public ::testing::Test {
 protected:
  ErasureSchemeTest() : scheme_("data", {.k = 3, .m = 1}) {
    cloud::install_standard_four(registry_, 13);
    session_ = std::make_unique<gcs::MultiCloudSession>(registry_);
    session_->ensure_container_everywhere("data");
    slots_ = {session_->index_of("Rackspace"), session_->index_of("Aliyun"),
              session_->index_of("WindowsAzure"),
              session_->index_of("AmazonS3")};
  }

  cloud::CloudRegistry registry_;
  std::unique_ptr<gcs::MultiCloudSession> session_;
  ErasureScheme scheme_;
  std::vector<std::size_t> slots_;
};

TEST_F(ErasureSchemeTest, WritePlacesOneFragmentPerSlot) {
  auto w = scheme_.write(*session_, "/big", common::patterned(3 << 20, 1),
                         slots_);
  ASSERT_TRUE(w.status.is_ok());
  EXPECT_EQ(w.meta.redundancy, meta::RedundancyKind::kErasure);
  EXPECT_EQ(w.meta.locations.size(), 4u);
  EXPECT_EQ(w.meta.stripe_k, 3u);
  EXPECT_EQ(w.meta.stripe_m, 1u);
  EXPECT_EQ(w.meta.shard_size, (3u << 20) / 3);
  for (const auto& p : registry_.all()) {
    EXPECT_EQ(p->object_count(), 1u) << p->name();
  }
}

TEST_F(ErasureSchemeTest, WriteRejectsWrongTargetCount) {
  auto w = scheme_.write(*session_, "/big", common::patterned(100, 1),
                         {0, 1, 2});
  EXPECT_EQ(w.status.code(), common::StatusCode::kInvalidArgument);
}

TEST_F(ErasureSchemeTest, NormalReadTouchesOnlyDataFragments) {
  auto w = scheme_.write(*session_, "/big", common::patterned(1 << 20, 2),
                         slots_);
  ASSERT_TRUE(w.status.is_ok());
  for (const auto& p : registry_.all()) p->reset_counters();

  auto r = scheme_.read(*session_, w.meta);
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_FALSE(r.degraded);
  // The parity slot (AmazonS3, last) must not be read.
  EXPECT_EQ(registry_.find("AmazonS3")->counters().gets, 0u);
  EXPECT_EQ(registry_.find("Rackspace")->counters().gets, 1u);
  EXPECT_EQ(registry_.find("Aliyun")->counters().gets, 1u);
  EXPECT_EQ(registry_.find("WindowsAzure")->counters().gets, 1u);
}

TEST_F(ErasureSchemeTest, ReadReturnsExactBytesForManySizes) {
  for (std::uint64_t size : {1ull, 3ull, 100ull, 4096ull, 1048577ull}) {
    const auto data = common::patterned(size, size);
    auto w = scheme_.write(*session_, "/f" + std::to_string(size), data,
                           slots_);
    ASSERT_TRUE(w.status.is_ok());
    auto r = scheme_.read(*session_, w.meta);
    ASSERT_TRUE(r.status.is_ok()) << size;
    EXPECT_EQ(r.data, data) << size;
  }
}

TEST_F(ErasureSchemeTest, DegradedReadReconstructsFromSurvivors) {
  const auto data = common::patterned(2 << 20, 3);
  auto w = scheme_.write(*session_, "/big", data, slots_);
  ASSERT_TRUE(w.status.is_ok());

  // Take down each data-slot provider in turn; reads must still succeed.
  for (const auto& name : {"Rackspace", "Aliyun", "WindowsAzure"}) {
    registry_.find(name)->set_online(false);
    auto r = scheme_.read(*session_, w.meta);
    ASSERT_TRUE(r.status.is_ok()) << name;
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.data, data);
    registry_.find(name)->set_online(true);
  }
}

TEST_F(ErasureSchemeTest, DegradedReadFetchesParity) {
  auto w = scheme_.write(*session_, "/big", common::patterned(1 << 20, 4),
                         slots_);
  registry_.find("Aliyun")->set_online(false);
  for (const auto& p : registry_.all()) p->reset_counters();

  auto r = scheme_.read(*session_, w.meta);
  ASSERT_TRUE(r.status.is_ok());
  // Parity (AmazonS3) must now be fetched — the recovery-traffic cost the
  // paper attributes to erasure coding during outages.
  EXPECT_EQ(registry_.find("AmazonS3")->counters().gets, 1u);
}

TEST_F(ErasureSchemeTest, TwoProvidersDownIsDataLoss) {
  auto w = scheme_.write(*session_, "/big", common::patterned(1 << 20, 5),
                         slots_);
  registry_.find("Aliyun")->set_online(false);
  registry_.find("Rackspace")->set_online(false);
  auto r = scheme_.read(*session_, w.meta);
  EXPECT_EQ(r.status.code(), common::StatusCode::kDataLoss);
}

TEST_F(ErasureSchemeTest, SmallUpdateUsesRmwWith2R2W) {
  const auto data = common::patterned(3 << 20, 6);
  auto w = scheme_.write(*session_, "/big", data, slots_);
  ASSERT_TRUE(w.status.is_ok());
  for (const auto& p : registry_.all()) p->reset_counters();

  // Update 4 KB inside the first fragment.
  const auto patch = common::patterned(4096, 7);
  bool rmw = false;
  auto u = scheme_.update_range(*session_, w.meta, 100, patch, &rmw);
  ASSERT_TRUE(u.status.is_ok());
  EXPECT_TRUE(rmw);

  // Paper §II-B: a RAID5 small update = 2 reads + 2 writes total.
  std::uint64_t gets = 0, puts = 0;
  for (const auto& p : registry_.all()) {
    gets += p->counters().gets;
    puts += p->counters().puts;
  }
  EXPECT_EQ(gets, 2u);
  EXPECT_EQ(puts, 2u);

  // And the data must reflect the patch.
  auto r = scheme_.read(*session_, u.meta);
  ASSERT_TRUE(r.status.is_ok());
  common::Bytes expected = data;
  std::copy(patch.begin(), patch.end(), expected.begin() + 100);
  EXPECT_EQ(r.data, expected);
}

TEST_F(ErasureSchemeTest, CrossFragmentUpdateFallsBackToRestripe) {
  const auto data = common::patterned(3000, 8);
  auto w = scheme_.write(*session_, "/f", data, slots_);
  ASSERT_TRUE(w.status.is_ok());
  // shard_size = 1000; patch spans fragments 0 and 1.
  const auto patch = common::patterned(200, 9);
  bool rmw = true;
  auto u = scheme_.update_range(*session_, w.meta, 900, patch, &rmw);
  ASSERT_TRUE(u.status.is_ok());
  EXPECT_FALSE(rmw);
  auto r = scheme_.read(*session_, u.meta);
  ASSERT_TRUE(r.status.is_ok());
  common::Bytes expected = data;
  std::copy(patch.begin(), patch.end(), expected.begin() + 900);
  EXPECT_EQ(r.data, expected);
}

TEST_F(ErasureSchemeTest, UpdateBeyondEofRejected) {
  auto w = scheme_.write(*session_, "/f", common::patterned(1000, 10), slots_);
  auto u = scheme_.update_range(*session_, w.meta, 990,
                                common::patterned(100, 11));
  EXPECT_EQ(u.status.code(), common::StatusCode::kInvalidArgument);
}

TEST_F(ErasureSchemeTest, UpdateDuringOutageStillLandsViaDegradedPath) {
  const auto data = common::patterned(3 << 20, 12);
  auto w = scheme_.write(*session_, "/big", data, slots_);
  ASSERT_TRUE(w.status.is_ok());
  registry_.find("Rackspace")->set_online(false);  // holds fragment 0

  const auto patch = common::patterned(4096, 13);
  bool rmw = true;
  std::vector<std::string> unreachable;
  auto u = scheme_.update_range(*session_, w.meta, 10, patch, &rmw,
                                &unreachable);
  ASSERT_TRUE(u.status.is_ok());
  EXPECT_FALSE(rmw);  // had to fall back
  EXPECT_FALSE(unreachable.empty());

  registry_.find("Rackspace")->set_online(true);
  // Fragment on Rackspace is stale, but a degraded read from the other
  // three still reconstructs the updated object (CRC now set by restripe).
  registry_.find("Rackspace")->set_online(false);
  auto r = scheme_.read(*session_, u.meta);
  ASSERT_TRUE(r.status.is_ok());
  common::Bytes expected = data;
  std::copy(patch.begin(), patch.end(), expected.begin() + 10);
  EXPECT_EQ(r.data, expected);
}

// A twin fleet replays an update's rounds one by one: same seed and same
// op sequence, so every provider draws the same latencies in both.
struct StripeFleet {
  explicit StripeFleet(std::uint64_t seed) {
    cloud::install_standard_four(registry, seed);
    session = std::make_unique<gcs::MultiCloudSession>(registry);
    session->ensure_container_everywhere("data");
    slots = {session->index_of("Rackspace"), session->index_of("Aliyun"),
             session->index_of("WindowsAzure"), session->index_of("AmazonS3")};
  }

  cloud::CloudRegistry registry;
  std::unique_ptr<gcs::MultiCloudSession> session;
  ErasureScheme scheme{"data", {.k = 3, .m = 1}};
  std::vector<std::size_t> slots;
};

TEST(ErasureSchemeUpdateTest, FallbackChargesTheFailedRangeReadRound) {
  // The parity holder is offline, so the RMW range-read round fails and
  // the update falls back to a whole read and a re-stripe. The update
  // costs all three rounds, the failed one included.
  const auto data = common::patterned(2 << 20, 21);
  const auto patch = common::patterned(100, 22);
  constexpr std::uint64_t kOffset = 10;
  StripeFleet updated(197);
  StripeFleet twin(197);
  std::vector<meta::FileMeta> metas;
  for (StripeFleet* f : {&updated, &twin}) {
    auto w = f->scheme.write(*f->session, "/big", data, f->slots);
    ASSERT_TRUE(w.status.is_ok());
    metas.push_back(w.meta);
    f->registry.find("AmazonS3")->set_online(false);  // holds the parity
  }

  bool rmw = true;
  auto u = updated.scheme.update_range(*updated.session, metas[0], kOffset,
                                       patch, &rmw);
  ASSERT_TRUE(u.status.is_ok());
  EXPECT_FALSE(rmw);

  // The twin: the range reads of data slot 0 and the parity slot...
  const meta::FileMeta& meta = metas[1];
  gcs::AsyncBatch reads(*twin.session);
  for (std::size_t slot : {0u, 3u}) {
    reads.submit(gcs::CloudOp::get_range(
        twin.slots[slot], {"data", meta.locations[slot].object_name}, kOffset,
        patch.size()));
  }
  gcs::BatchStats round;
  reads.await_all(&round);
  EXPECT_EQ(round.succeeded, 1u);
  EXPECT_GT(round.latency, 0);
  // ...then the whole read and the re-stripe of the patched object.
  auto whole = twin.scheme.read(*twin.session, meta);
  ASSERT_TRUE(whole.status.is_ok());
  common::Bytes patched = data;
  std::copy(patch.begin(), patch.end(), patched.begin() + kOffset);
  auto restripe = twin.scheme.write(*twin.session, meta.path, patched,
                                    twin.slots);
  ASSERT_TRUE(restripe.status.is_ok());
  EXPECT_EQ(u.latency, round.latency + whole.latency + restripe.latency);
}

TEST_F(ErasureSchemeTest, RemoveDeletesAllFragments) {
  auto w = scheme_.write(*session_, "/f", common::patterned(100, 14), slots_);
  auto rm = scheme_.remove(*session_, w.meta);
  EXPECT_TRUE(rm.status.is_ok());
  for (const auto& p : registry_.all()) {
    EXPECT_EQ(p->object_count(), 0u) << p->name();
  }
}

TEST_F(ErasureSchemeTest, RebuildFragmentsForProvider) {
  const auto data = common::patterned(2 << 20, 15);
  auto w = scheme_.write(*session_, "/big", data, slots_);
  ASSERT_TRUE(w.status.is_ok());

  // Destroy Aliyun's fragment, then rebuild it from survivors.
  auto* ali = registry_.find("Aliyun");
  const std::string frag_name = w.meta.locations[1].object_name;
  auto original = ali->raw_store().get("data", frag_name);
  ASSERT_TRUE(original.is_ok());
  ali->raw_store().remove("data", frag_name);

  common::SimDuration latency = 0;
  auto rebuilt = scheme_.rebuild_fragments_for(*session_, w.meta, "Aliyun",
                                               &latency);
  ASSERT_TRUE(rebuilt.is_ok());
  ASSERT_EQ(rebuilt.value().size(), 1u);
  EXPECT_EQ(rebuilt.value()[0].first, frag_name);
  EXPECT_EQ(rebuilt.value()[0].second, original.value());
  EXPECT_GT(latency, 0);
}

// Copy-meter pins: deterministic counts of the bytes the stripe data
// plane memcpys. They may only ever tighten.
TEST_F(ErasureSchemeTest, NormalReadOfSlicedFragmentsCopiesNothing) {
  // 3 MiB over k=3: every data fragment is a slice of the caller's block,
  // so the read reassembles them by refbump.
  const auto data = common::Buffer::from(common::patterned(3 << 20, 30));
  auto w = scheme_.write(*session_, "/big", data, slots_);
  ASSERT_TRUE(w.status.is_ok());
  common::reset_copied_bytes();
  auto r = scheme_.read(*session_, w.meta);
  EXPECT_EQ(common::copied_bytes(), 0u);
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_FALSE(r.degraded);
  EXPECT_EQ(r.data, data);
}

TEST_F(ErasureSchemeTest, DegradedReadCopiesOnlyPresentDataBytes) {
  // (3 MiB + 1) over k=3: shards of 1 MiB + 1, the tail slot holds
  // 1 MiB - 1 object bytes. With slot 0 offline, slot 1 and slot 2's object
  // bytes are copied into the output and slot 0 is rebuilt in place there.
  const auto data = common::patterned((3 << 20) + 1, 31);
  auto w = scheme_.write(*session_, "/big", data, slots_);
  ASSERT_TRUE(w.status.is_ok());
  registry_.find(w.meta.locations[0].provider)->set_online(false);
  common::reset_copied_bytes();
  auto r = scheme_.read(*session_, w.meta);
  EXPECT_EQ(common::copied_bytes(), ((1u << 20) + 1) + ((1u << 20) - 1));
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_TRUE(r.degraded);
  EXPECT_EQ(r.data, data);
}

TEST_F(ErasureSchemeTest, RebuildCopiesNothing) {
  const auto data = common::patterned((2 << 20) + 5, 32);
  auto w = scheme_.write(*session_, "/big", data, slots_);
  ASSERT_TRUE(w.status.is_ok());
  for (std::size_t slot : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    const auto& loc = w.meta.locations[slot];
    auto original = registry_.find(loc.provider)->raw_store().get("data",
                                                                  loc.object_name);
    ASSERT_TRUE(original.is_ok());
    common::reset_copied_bytes();
    auto rebuilt =
        scheme_.rebuild_fragments_for(*session_, w.meta, loc.provider, nullptr);
    EXPECT_EQ(common::copied_bytes(), 0u) << "slot " << slot;
    ASSERT_TRUE(rebuilt.is_ok()) << "slot " << slot;
    ASSERT_EQ(rebuilt.value().size(), 1u);
    EXPECT_EQ(rebuilt.value()[0].second, original.value()) << "slot " << slot;
  }
}

TEST_F(ErasureSchemeTest, LargeReadLatencyBeatsSingleFullTransfer) {
  // The parallelism advantage (paper §II-B): striping a large file across
  // providers beats a full-size transfer from the slowest replica pair.
  const auto data = common::patterned(8 << 20, 16);
  auto w = scheme_.write(*session_, "/big", data, slots_);
  ASSERT_TRUE(w.status.is_ok());
  auto striped = scheme_.read(*session_, w.meta);
  ASSERT_TRUE(striped.status.is_ok());

  // Full-size GET from Rackspace (what a replica read would cost there).
  auto& rack = *registry_.find("Rackspace");
  rack.create("whole");
  rack.put({"whole", "o"}, data);
  auto whole = rack.get({"whole", "o"});
  ASSERT_TRUE(whole.ok());
  EXPECT_LT(striped.latency, whole.latency);
}

// The writer hashes each byte once and derives the object CRC and the
// padded tail fragment's CRC by combination; both must equal a direct
// CRC over the object and over each stored fragment.
TEST(ErasureStripeCrcTest, CombinedCrcsMatchDirectComputation) {
  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, 19);
  auto s3b = cloud::amazon_s3_profile();
  s3b.name = "AmazonS3-b";
  registry.add(s3b, 20);
  auto aliyun_b = cloud::aliyun_profile();
  aliyun_b.name = "Aliyun-b";
  registry.add(aliyun_b, 21);
  gcs::MultiCloudSession session(registry);
  session.ensure_container_everywhere("data");

  for (const erasure::StripeGeometry geom :
       {erasure::StripeGeometry{.k = 2, .m = 1},
        erasure::StripeGeometry{.k = 4, .m = 2}}) {
    ErasureScheme scheme("data", geom);
    std::vector<std::size_t> slots(geom.total());
    std::iota(slots.begin(), slots.end(), std::size_t{0});
    const std::uint64_t k = geom.k;
    for (const std::uint64_t size :
         {std::uint64_t{0}, std::uint64_t{1}, k - 1, k, 4096 * k,
          4096 * k + 1, std::uint64_t{1 << 20} + 1, std::uint64_t{8 << 20}}) {
      const auto data = common::patterned(size, size + k);
      const std::string path =
          "/k" + std::to_string(k) + "/" + std::to_string(size);
      auto w = scheme.write(session, path, data, slots);
      ASSERT_TRUE(w.status.is_ok()) << path;
      EXPECT_EQ(w.meta.crc, common::crc32c(data)) << path;
      ASSERT_EQ(w.meta.fragment_crcs.size(), geom.total()) << path;
      for (std::size_t i = 0; i < geom.total(); ++i) {
        const auto& loc = w.meta.locations[i];
        auto stored =
            registry.find(loc.provider)->raw_store().get("data", loc.object_name);
        ASSERT_TRUE(stored.is_ok()) << path << " slot " << i;
        EXPECT_EQ(stored.value().size(), w.meta.shard_size) << path;
        EXPECT_EQ(w.meta.fragment_crcs[i], common::crc32c(stored.value()))
            << path << " slot " << i;
      }
    }
  }
}

}  // namespace
}  // namespace hyrd::dist
