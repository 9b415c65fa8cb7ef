// AsyncBatch's one execution model: every op runs on the submitting
// thread, in submit order; under a common::VirtualScope the batch
// reinstalls the tenant's context at each op's virtual arrival — the seam
// that lets the discrete-event engine (sim/) run a million tenants through
// the unmodified scheme stack.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cloud/profiles.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/virtual_time.h"
#include "gcsapi/async_batch.h"
#include "gcsapi/session.h"

namespace hyrd::gcs {
namespace {

class AsyncInlineTest : public ::testing::Test {
 protected:
  AsyncInlineTest()
      : session_((cloud::install_standard_four(registry_, 42), registry_)) {
    session_.ensure_container_everywhere("c");
    payload_ = common::patterned(4096, 3);
    for (std::size_t i = 0; i < session_.client_count(); ++i) {
      session_.client(i).put({"c", "obj"}, payload_);
    }
  }

  cloud::CloudRegistry registry_;
  MultiCloudSession session_;
  common::Bytes payload_;
};

TEST_F(AsyncInlineTest, InlineOpsRunOnTheSubmittingThread) {
  // With and without a scope: each op reaches its provider on this thread,
  // in submit order (two ops to one provider included), before submit()
  // returns.
  struct Seen {
    std::thread::id thread;
    std::string name;
  };
  std::vector<Seen> seen;
  for (const auto& p : registry_.all()) {
    p->set_op_hook([&](cloud::OpKind, const cloud::ObjectKey& key) {
      seen.push_back({std::this_thread::get_id(), key.name});
    });
  }
  const std::vector<std::size_t> targets{2, 0, 3, 0, 1};
  for (const bool scoped : {false, true}) {
    seen.clear();
    std::optional<common::VirtualScope> scope;
    if (scoped) scope.emplace(common::VirtualContext{0, 1, 1.0});
    AsyncBatch batch(session_);
    std::vector<std::string> expected;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      expected.push_back(std::string("k").append(std::to_string(i)));
      batch.submit(CloudOp::put(targets[i], {"c", expected.back()},
                                common::ByteSpan(payload_)));
      ASSERT_EQ(seen.size(), i + 1) << "op " << i << " ran after submit";
    }
    const auto completions = batch.await_all(nullptr);
    ASSERT_EQ(completions.size(), targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      EXPECT_TRUE(completions[i].ok());
      EXPECT_EQ(seen[i].name, expected[i]) << "scoped=" << scoped;
      EXPECT_EQ(seen[i].thread, std::this_thread::get_id())
          << "scoped=" << scoped;
    }
  }
  for (const auto& p : registry_.all()) p->set_op_hook(nullptr);
}

TEST_F(AsyncInlineTest, StartOffsetAdvancesTheReinstalledContext) {
  // An op submitted at virtual offset S (failover legs, hedges, chains)
  // must reach the provider under a context whose `now` is epoch + S —
  // that is the arrival instant the provider's fair queue prices.
  constexpr common::SimDuration kEpoch = 5 * common::kSecond;
  constexpr common::SimDuration kOffset = 250 * common::kMillisecond;
  common::SimDuration seen_now = -1;
  std::uint64_t seen_tenant = 0;
  registry_.all()[0]->set_op_hook(
      [&](cloud::OpKind, const cloud::ObjectKey&) {
        if (const auto* ctx = common::VirtualScope::current()) {
          seen_now = ctx->now;
          seen_tenant = ctx->tenant;
        }
      });
  common::VirtualScope scope({.now = kEpoch, .tenant = 77, .weight = 1.0});
  AsyncBatch batch(session_);
  auto op = CloudOp::get(0, {"c", "obj"});
  op.start_offset = kOffset;
  batch.submit(std::move(op));
  (void)batch.await_all(nullptr);
  registry_.all()[0]->set_op_hook(nullptr);
  EXPECT_EQ(seen_now, kEpoch + kOffset);
  EXPECT_EQ(seen_tenant, 77u);
}

}  // namespace
}  // namespace hyrd::gcs
