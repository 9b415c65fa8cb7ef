// Virtual-time congestion model for a simulated provider: bounded service
// capacity + a weighted fair queue over tenants.
//
// The analytic LatencyModel (latency_model.h) prices a request as if the
// provider were infinitely wide: ten thousand concurrent GETs each see the
// same first-byte + transfer time. That is exactly the assumption the
// scale-out engine (sim/) exists to break — a real provider front-end has
// a finite number of service slots, and past the saturation point latency
// is dominated by *queueing*, not transfer. This module adds that knee.
//
// Model: `channels` parallel service slots, each serving one request at a
// time. A request arriving at virtual time `a` with server-side service
// demand `s` (fixed per-op cost + bytes / service rate):
//
//   gate  = max(a, tag[tenant])            per-flow pacing (fairness)
//   begin = max(gate, earliest slot free)  queueing
//   wait  = begin - a                      what the client additionally sees
//
// and the flow's tag advances to begin + s / weight: a tenant issuing
// faster than its weighted share self-queues behind its own tag while
// light flows pass through at slot availability — start-time fair queuing
// in the style of SFQ, computed incrementally at admission so each op's
// delay is known the instant it arrives (the discrete-event loop charges
// it to the tenant's completion without any provider-side callback).
//
// Admission order is arrival order as dispatched by the event loop; an op
// that would exceed `max_queue_depth` waiting requests is rejected with
// kResourceExhausted (an HTTP 429), which is how overload stays bounded
// instead of accumulating unbounded virtual backlog.
//
// The queue only engages for requests that carry a VirtualContext
// (common/virtual_time.h). Single-client paths never install one, so every
// pre-existing bench and test is bit-for-bit unchanged.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/clock.h"
#include "common/robin_hood.h"

namespace hyrd::cloud {

struct CongestionParams {
  /// Concurrent service slots at the provider front-end.
  std::size_t channels = 32;

  /// Fixed server-side cost per request (request parsing, index lookup).
  double per_op_service_ms = 2.0;

  /// Per-slot payload service rate, MB/s (decimal).
  double service_mbps = 200.0;

  /// Reject (429) once this many requests are waiting for a slot.
  std::size_t max_queue_depth = 250'000;
};

struct CongestionStats {
  std::uint64_t admitted = 0;
  std::uint64_t queued = 0;     // admitted with wait > 0
  std::uint64_t throttled = 0;  // rejected at the depth cap
  common::SimDuration total_wait = 0;
  common::SimDuration max_wait = 0;
  std::size_t peak_depth = 0;
};

/// One provider's admission state. Not internally synchronized: SimProvider
/// drives it under its own mutex.
class FairQueue {
 public:
  explicit FairQueue(CongestionParams params);

  struct Admission {
    bool admitted = true;
    common::SimDuration wait = 0;  // queueing delay added to the op
  };

  /// Admits (or rejects) a request from `tenant` arriving at virtual time
  /// `arrival` carrying `bytes` of payload. Arrivals need not be globally
  /// monotonic (failover chains land "late"); state only moves forward.
  Admission admit(std::uint64_t tenant, double weight,
                  common::SimDuration arrival, std::uint64_t bytes);

  /// Server-side service demand for a request of `bytes` payload.
  [[nodiscard]] common::SimDuration service_time(std::uint64_t bytes) const;

  /// Waiting-request count as of virtual time `now` (prunes entries whose
  /// service already began). This is the queue depth the timeline sampler
  /// exports per provider.
  [[nodiscard]] std::size_t depth_at(common::SimDuration now);

  [[nodiscard]] const CongestionParams& params() const { return params_; }
  [[nodiscard]] const CongestionStats& stats() const { return stats_; }

 private:
  void prune(common::SimDuration arrival);

  CongestionParams params_;
  CongestionStats stats_;
  std::vector<common::SimDuration> slot_free_;  // per-channel busy-until
  // Begin times of admitted-but-not-yet-started requests; its size is the
  // queue depth at the latest arrival after prune().
  std::priority_queue<common::SimDuration, std::vector<common::SimDuration>,
                      std::greater<>>
      waiting_;
  // Per-flow virtual finish tags. Only flows currently ahead of real
  // arrival time matter; stale tags are lazily pruned so the map tracks
  // the set of *backlogged* tenants, not every tenant ever seen. Open
  // addressing: admitting a new flow allocates nothing once the table has
  // grown to the backlog's size.
  common::RobinHoodMap<std::uint64_t, common::SimDuration> flow_tag_;
  std::uint64_t admits_since_prune_ = 0;
};

}  // namespace hyrd::cloud
