// Retry v2 (gcsapi/retry.h): per-code retryability, the capped exponential
// ladder, stateless full jitter, the deadline budget — and the end-to-end
// regression this PR exists for: a FairQueue-throttled (429) op riding
// through CloudClient's backoff to success instead of surfacing the error.
#include <gtest/gtest.h>

#include "cloud/profiles.h"
#include "cloud/provider.h"
#include "common/clock.h"
#include "common/status.h"
#include "common/virtual_time.h"
#include "gcsapi/client.h"
#include "gcsapi/retry.h"
#include "support/cloud_spans.h"

namespace hyrd::gcs {
namespace {

TEST(RetryPolicy, ClassifiesCodes) {
  RetryPolicy policy;  // defaults: throttled on, unavailable off
  EXPECT_TRUE(policy.retryable(common::StatusCode::kInternal));
  EXPECT_TRUE(policy.retryable(common::StatusCode::kResourceExhausted));
  EXPECT_FALSE(policy.retryable(common::StatusCode::kUnavailable));
  EXPECT_FALSE(policy.retryable(common::StatusCode::kNotFound));
  EXPECT_FALSE(policy.retryable(common::StatusCode::kInvalidArgument));
  EXPECT_FALSE(policy.retryable(common::StatusCode::kDataLoss));
  EXPECT_FALSE(policy.retryable(common::StatusCode::kOk));

  policy.retry_unavailable = true;
  EXPECT_TRUE(policy.retryable(common::StatusCode::kUnavailable));
  policy.retry_throttled = false;
  EXPECT_FALSE(policy.retryable(common::StatusCode::kResourceExhausted));
}

TEST(RetryPolicy, NoneNeverRetries) {
  const RetryPolicy none = RetryPolicy::none();
  EXPECT_EQ(none.max_attempts, 1);
}

TEST(RetryPolicy, LadderIsExponentialAndCapped) {
  RetryPolicy policy;
  policy.backoff_ms = 50.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_ms = 400.0;
  policy.jitter_seed = 0;  // deterministic ladder
  EXPECT_EQ(policy.backoff_before(1, 0), common::from_ms(50.0));
  EXPECT_EQ(policy.backoff_before(2, 0), common::from_ms(100.0));
  EXPECT_EQ(policy.backoff_before(3, 0), common::from_ms(200.0));
  EXPECT_EQ(policy.backoff_before(4, 0), common::from_ms(400.0));
  // The unbounded-ladder bug: attempt 10 used to be 50 * 2^9 = 25.6 s.
  EXPECT_EQ(policy.backoff_before(10, 0), common::from_ms(400.0));
  EXPECT_EQ(policy.backoff_before(30, 0), common::from_ms(400.0));
}

TEST(RetryPolicy, JitterIsStatelessAndDeterministic) {
  RetryPolicy policy;
  policy.backoff_ms = 100.0;
  policy.max_backoff_ms = 10'000.0;
  policy.jitter_seed = 1234;

  // Pure function of (seed, decorrelate, attempt): no hidden RNG stream,
  // so concurrent callers cannot perturb each other's draws.
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(policy.backoff_before(attempt, 7),
              policy.backoff_before(attempt, 7));
  }
  // Full jitter stays within [0, ladder].
  for (int attempt = 1; attempt <= 6; ++attempt) {
    RetryPolicy unjittered = policy;
    unjittered.jitter_seed = 0;
    EXPECT_LE(policy.backoff_before(attempt, 7),
              unjittered.backoff_before(attempt, 7));
  }
  // Distinct decorrelators (distinct ops) draw distinct backoffs — the
  // whole point: a throttled cohort must not re-stampede in lockstep.
  bool any_different = false;
  for (std::uint64_t d = 1; d <= 8; ++d) {
    if (policy.backoff_before(3, d) != policy.backoff_before(3, d + 100)) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);
  // A different seed reshuffles the draws.
  RetryPolicy other = policy;
  other.jitter_seed = 4321;
  bool seed_matters = false;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    if (policy.backoff_before(attempt, 7) != other.backoff_before(attempt, 7)) {
      seed_matters = true;
    }
  }
  EXPECT_TRUE(seed_matters);
}

TEST(RetryPolicy, DeadlineBudgetStopsRetrying) {
  RetryPolicy policy;
  policy.deadline_ms = 500.0;
  EXPECT_FALSE(policy.over_deadline(common::from_ms(100.0),
                                    common::from_ms(100.0)));
  EXPECT_FALSE(policy.over_deadline(common::from_ms(400.0),
                                    common::from_ms(100.0)));
  EXPECT_TRUE(policy.over_deadline(common::from_ms(400.0),
                                   common::from_ms(101.0)));
  policy.deadline_ms = 0.0;  // unlimited
  EXPECT_FALSE(policy.over_deadline(common::from_ms(1e9), 0));
}

// The regression at the heart of this PR: with provider-side fair-queue
// throttling, a burst from one tenant used to surface kResourceExhausted
// to the caller because 429 was classified as non-retryable. With Retry v2
// the attempt backs off, the retry arrives after the backlog drains (the
// retry re-installs the virtual scope *advanced* by the time already
// spent), and the op completes with no client-visible error.
TEST(RetryPolicy, ThrottledOpSucceedsAfterBackoff) {
  const cloud::CongestionParams tight{.channels = 1,
                                      .per_op_service_ms = 10.0,
                                      .service_mbps = 200.0,
                                      .max_queue_depth = 1};

  // Without retry: the third simultaneous op from the tenant is a 429.
  {
    cloud::SimProvider provider(cloud::aliyun_profile(), 42);
    provider.set_congestion(tight);
    ASSERT_TRUE(provider.create("c").status.is_ok());
    CloudClient client(&provider, RetryPolicy::none());
    common::VirtualScope scope({.now = 0, .tenant = 1, .weight = 1.0});
    test::CloudSpanCapture capture;
    ASSERT_TRUE(client.put({"c", "a"}, common::bytes_of("x")).ok());
    ASSERT_TRUE(client.put({"c", "b"}, common::bytes_of("x")).ok());
    const auto r = client.put({"c", "burst"}, common::bytes_of("x"));
    ASSERT_EQ(r.status.code(), common::StatusCode::kResourceExhausted);
    ASSERT_EQ(capture.spans().size(), 3u);
    EXPECT_EQ(test::span_arg(capture.spans().back(), "attempts"), 1);
  }

  // With retry: same burst, zero client-visible errors.
  {
    cloud::SimProvider provider(cloud::aliyun_profile(), 42);
    provider.set_congestion(tight);
    ASSERT_TRUE(provider.create("c").status.is_ok());
    RetryPolicy policy;
    policy.max_attempts = 5;
    policy.backoff_ms = 50.0;
    policy.retry_throttled = true;
    CloudClient client(&provider, policy);
    common::VirtualScope scope({.now = 0, .tenant = 1, .weight = 1.0});
    test::CloudSpanCapture capture;
    ASSERT_TRUE(client.put({"c", "a"}, common::bytes_of("x")).ok());
    ASSERT_TRUE(client.put({"c", "b"}, common::bytes_of("x")).ok());
    const auto r = client.put({"c", "burst"}, common::bytes_of("x"));
    EXPECT_TRUE(r.ok()) << r.status.to_string();
    ASSERT_EQ(capture.spans().size(), 3u);
    EXPECT_GT(test::span_arg(capture.spans().back(), "attempts"), 1);
    // The backoff is charged to the op's virtual latency.
    EXPECT_GE(r.latency, common::from_ms(50.0));
    EXPECT_EQ(provider.object_count(), 3u);
  }
}

}  // namespace
}  // namespace hyrd::gcs
