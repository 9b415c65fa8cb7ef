#include "gcsapi/retry.h"

#include <algorithm>

#include "common/rng.h"

namespace hyrd::gcs {

bool RetryPolicy::retryable(common::StatusCode code) const {
  switch (code) {
    case common::StatusCode::kInternal:
      return true;  // transient server fault: always worth one more try
    case common::StatusCode::kUnavailable:
      return retry_unavailable;
    case common::StatusCode::kResourceExhausted:
      return retry_throttled;
    default:
      // kOk never reaches here; everything else (kNotFound, kInvalidArgument,
      // kAlreadyExists, kDataLoss, kFailedPrecondition) is
      // deterministic — retrying cannot change the outcome.
      return false;
  }
}

common::SimDuration RetryPolicy::backoff_before(
    int attempt, std::uint64_t decorrelate) const {
  if (attempt < 1) attempt = 1;
  double ladder = backoff_ms;
  for (int i = 1; i < attempt; ++i) {
    ladder *= backoff_multiplier;
    if (max_backoff_ms > 0 && ladder >= max_backoff_ms) {
      ladder = max_backoff_ms;
      break;
    }
  }
  if (max_backoff_ms > 0) ladder = std::min(ladder, max_backoff_ms);
  if (jitter_seed != 0) {
    // Full jitter (AWS style): U[0, ladder). Stateless: one SplitMix64 draw
    // from (seed, flow, attempt), so no shared RNG stream exists to race on
    // and same-seed runs reproduce the exact sequence.
    common::SplitMix64 mix(jitter_seed ^
                           (decorrelate * 0x9e3779b97f4a7c15ull) ^
                           (static_cast<std::uint64_t>(attempt) << 56));
    const double u =
        static_cast<double>(mix.next() >> 11) * 0x1.0p-53;  // [0, 1)
    ladder *= u;
  }
  return common::from_ms(ladder);
}

bool RetryPolicy::over_deadline(common::SimDuration spent,
                                common::SimDuration next_backoff) const {
  if (deadline_ms <= 0.0) return false;
  return spent + next_backoff > common::from_ms(deadline_ms);
}

}  // namespace hyrd::gcs
