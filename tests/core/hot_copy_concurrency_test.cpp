// Regression test: HyRDClient::get must not hold hot_mu_ across provider
// I/O. The hot-copy read is a full-object remote get — serializing every
// other client-side hot-copy lookup behind it would turn the "fast path"
// into a convoy. The SimProvider op hook stalls the hot-copy get inside
// the provider; while it is stalled, hot-copy bookkeeping on other
// threads must still complete.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "cloud/profiles.h"
#include "core/hyrd_client.h"
#include "dist/scheme.h"

namespace hyrd::core {
namespace {

using namespace std::chrono_literals;

TEST(HotCopyConcurrency, GetDoesNotHoldHotLockAcrossCloudIO) {
  HyRDConfig config;
  config.hot_promotion_enabled = true;
  config.hot_promotion_reads = 1;
  cloud::CloudRegistry reg;
  cloud::install_standard_four(reg, 37);
  gcs::MultiCloudSession session(reg);
  HyRDClient client(session, config);

  const auto data = common::patterned(4 << 20, 55);
  ASSERT_TRUE(client.put("/hot", data).status.is_ok());
  ASSERT_TRUE(client.get("/hot").status.is_ok());  // 1st read promotes
  ASSERT_TRUE(client.has_hot_copy("/hot"));

  // Force the next get onto the hot copy: take down enough stripe slots
  // that the stripe is unreachable. The promotion target (fastest
  // provider) stays online and serves the full-object read.
  const std::string hot_provider =
      session.client(client.replica_targets().front()).provider_name();
  cloud::SimProvider* hot = reg.find(hot_provider);
  ASSERT_NE(hot, nullptr);
  for (const auto& p : reg.all()) {
    if (p->name() != hot_provider) p->set_online(false);
  }

  // Stall the hot-copy object's get inside the provider until released.
  const std::string hot_object = dist::fragment_object_name("/hot", 'h', 0);
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool in_get = false;
  bool release = false;
  hot->set_op_hook(
      [&](cloud::OpKind op, const cloud::ObjectKey& key) {
        if (op != cloud::OpKind::kGet || key.name != hot_object) return;
        std::unique_lock lk(gate_mu);
        in_get = true;
        gate_cv.notify_all();
        gate_cv.wait(lk, [&] { return release; });
      });

  std::thread reader([&] {
    auto r = client.get("/hot");
    EXPECT_TRUE(r.status.is_ok());
    EXPECT_EQ(r.data, data);
  });
  {
    std::unique_lock lk(gate_mu);
    ASSERT_TRUE(gate_cv.wait_for(lk, 10s, [&] { return in_get; }))
        << "hot-copy get never reached the provider";
  }

  // The remote get is now parked inside the provider. Hot-copy state
  // queries take hot_mu_; they must not be stuck behind that I/O.
  auto probe = std::async(std::launch::async,
                          [&] { return client.has_hot_copy("/hot"); });
  const bool probe_done = probe.wait_for(2s) == std::future_status::ready;
  EXPECT_TRUE(probe_done)
      << "has_hot_copy blocked: get() holds hot_mu_ across cloud I/O";

  // Unblock regardless of outcome so a regression fails rather than hangs.
  {
    std::lock_guard lk(gate_mu);
    release = true;
  }
  gate_cv.notify_all();
  reader.join();
  if (probe_done) {
    EXPECT_TRUE(probe.get());
  }

  hot->set_op_hook(nullptr);
  for (const auto& p : reg.all()) p->set_online(true);
}

}  // namespace
}  // namespace hyrd::core
