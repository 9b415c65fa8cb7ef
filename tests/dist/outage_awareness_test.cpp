// The outage-awareness ablation (DESIGN.md §5): an outage-aware erasure
// client (HyRD, whose evaluator tracks availability) resolves a degraded
// read in one parallel round; a tracker-less client (RACS) probes the
// data fragments first and pays a second round for parity.
#include <gtest/gtest.h>

#include "cloud/profiles.h"
#include "dist/erasure_scheme.h"

namespace hyrd::dist {
namespace {

class OutageAwarenessTest : public ::testing::Test {
 protected:
  OutageAwarenessTest()
      : aware_("data", {.k = 3, .m = 1}, /*outage_aware=*/true),
        naive_("data", {.k = 3, .m = 1}, /*outage_aware=*/false) {
    cloud::install_standard_four(registry_, 197);
    session_ = std::make_unique<gcs::MultiCloudSession>(registry_);
    session_->ensure_container_everywhere("data");
    slots_ = {session_->index_of("Rackspace"), session_->index_of("Aliyun"),
              session_->index_of("WindowsAzure"),
              session_->index_of("AmazonS3")};
  }

  cloud::CloudRegistry registry_;
  std::unique_ptr<gcs::MultiCloudSession> session_;
  ErasureScheme aware_;
  ErasureScheme naive_;
  std::vector<std::size_t> slots_;
};

TEST_F(OutageAwarenessTest, BothReadCorrectlyDuringOutage) {
  const auto data = common::patterned(2 << 20, 1);
  auto w = aware_.write(*session_, "/f", data, slots_);
  ASSERT_TRUE(w.status.is_ok());
  registry_.find("Aliyun")->set_online(false);

  for (ErasureScheme* scheme : {&aware_, &naive_}) {
    auto r = scheme->read(*session_, w.meta);
    ASSERT_TRUE(r.status.is_ok());
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.data, data);
  }
}

TEST_F(OutageAwarenessTest, AwareReadIsOneRound) {
  const auto data = common::patterned(2 << 20, 2);
  auto w = aware_.write(*session_, "/f", data, slots_);
  registry_.find("Aliyun")->set_online(false);

  auto aware_read = aware_.read(*session_, w.meta);
  auto naive_read = naive_.read(*session_, w.meta);
  ASSERT_TRUE(aware_read.status.is_ok());
  ASSERT_TRUE(naive_read.status.is_ok());
  // The naive client pays phase 1 (incl. the refused connection) and then
  // a full second round for parity; the aware client fetches k reachable
  // fragments at once.
  EXPECT_LT(aware_read.latency, naive_read.latency);
}

TEST_F(OutageAwarenessTest, NaiveSecondRoundFetchesParity) {
  const auto data = common::patterned(1 << 20, 3);
  auto w = naive_.write(*session_, "/f", data, slots_);
  registry_.find("Aliyun")->set_online(false);
  for (const auto& p : registry_.all()) p->reset_counters();

  auto r = naive_.read(*session_, w.meta);
  ASSERT_TRUE(r.status.is_ok());
  // Parity holder (AmazonS3) is touched only in round two; the failed
  // provider registered a rejected attempt in round one.
  EXPECT_EQ(registry_.find("AmazonS3")->counters().gets, 1u);
  EXPECT_EQ(registry_.find("Aliyun")->counters().rejected_unavailable, 1u);
}

TEST_F(OutageAwarenessTest, AwareSkipsOfflineProviderEntirely) {
  const auto data = common::patterned(1 << 20, 4);
  auto w = aware_.write(*session_, "/f", data, slots_);
  registry_.find("Aliyun")->set_online(false);
  for (const auto& p : registry_.all()) p->reset_counters();

  auto r = aware_.read(*session_, w.meta);
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(registry_.find("Aliyun")->counters().rejected_unavailable, 0u);
}

TEST_F(OutageAwarenessTest, NoOutageIdenticalBehaviour) {
  const auto data = common::patterned(1 << 20, 5);
  auto w = aware_.write(*session_, "/f", data, slots_);
  auto a = aware_.read(*session_, w.meta);
  auto b = naive_.read(*session_, w.meta);
  ASSERT_TRUE(a.status.is_ok());
  ASSERT_TRUE(b.status.is_ok());
  EXPECT_FALSE(a.degraded);
  EXPECT_FALSE(b.degraded);
  EXPECT_EQ(a.data, b.data);
}

TEST_F(OutageAwarenessTest, RemoveRecordsOfflineProvider) {
  // A remove waits for every fragment: the offline target's remove fails
  // and must surface in unreachable_providers, or the client never logs
  // it and the fragment survives resync forever. Every other fragment is
  // gone.
  const auto data = common::patterned(2 << 20, 6);
  auto w = aware_.write(*session_, "/f", data, slots_);
  ASSERT_TRUE(w.status.is_ok());
  registry_.find("Aliyun")->set_online(false);

  auto r = aware_.remove(*session_, w.meta);
  ASSERT_TRUE(r.status.is_ok());
  EXPECT_EQ(r.unreachable_providers, std::vector<std::string>{"Aliyun"});
  EXPECT_EQ(registry_.find("Aliyun")->object_count(), 1u);
  for (const char* p : {"Rackspace", "WindowsAzure", "AmazonS3"}) {
    EXPECT_EQ(registry_.find(p)->object_count(), 0u) << p;
  }
}

}  // namespace
}  // namespace hyrd::dist
