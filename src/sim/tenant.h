// A synthetic tenant: one closed-loop client modeled as a state machine
// stepped by the discrete-event queue.
//
// Where the legacy benches dedicate an OS thread (≥ 512 KB of stack) to
// each concurrent client, a Tenant is ~100 bytes of state: an id, an RNG,
// an op counter, and its object path. Its entire lifecycle is a chain of
// events:
//
//   wakeup(t) -> install VirtualScope{t, id, weight}
//             -> issue one PUT or GET through the shared StorageClient
//                (AsyncBatch runs each op inline at its virtual arrival;
//                latency — including SimProvider queueing delay — comes
//                back as a virtual duration, with zero wall-clock blocking)
//             -> record the op into the fleet metrics
//             -> schedule next wakeup at t + latency + think time
//
// The tenant works on a single object in its own directory (t<id>/o), so
// per-tenant metadata stays O(1): metadata blocks are per-directory, and a
// shared directory would make every put serialize an O(tenants) block.
//
// Payloads are random-offset slices of one fleet-wide arena buffer: with
// the zero-copy store, 10^6 stored objects share the arena's bytes and
// cost only control blocks, which is what keeps a million-tenant run in
// hundreds of MB instead of tens of GB.
#pragma once

#include <cstdint>

#include "common/buffer.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/storage_client.h"
#include "gcsapi/retry.h"
#include "sim/event_queue.h"

namespace hyrd::sim {

/// Workload shape shared by every tenant of a fleet.
struct TenantConfig {
  std::uint32_t ops = 4;               // ops per tenant (first is a PUT)
  double write_ratio = 0.25;           // P(PUT) after the object exists
  std::uint32_t object_bytes = 4096;   // small file -> replicated path
  common::SimDuration mean_think = 2 * common::kSecond;  // exp. distributed
  double weight = 1.0;                 // fair-queuing share at providers

  /// Fraction of post-creation ops that are metadata stats: answered from
  /// the client-resident sharded MetadataStore, no provider traffic, zero
  /// virtual latency. The RNG draw only happens when this is > 0, so
  /// default runs keep their exact event streams (the determinism pins).
  double stat_ratio = 0.0;

  /// Tenant-level failure response: when an op fails retryably (throttled
  /// 429, provider outage), the tenant *schedules the retry as an event*
  /// at now + latency + backoff instead of counting a failure — the
  /// non-blocking Retry-v2 variant, so outage-end and brownout-recovery
  /// events interleave between attempts. Default none(): one attempt per
  /// op, one event per op (the shape the determinism tests pin).
  gcs::RetryPolicy retry = gcs::RetryPolicy::none();
};

/// Fleet-wide accounting shared (single-threaded) by all tenants.
struct FleetMetrics {
  common::LogHistogram latency_ms{0.1, 1.25, 120};  // 0.1 ms .. ~5e8 ms
  common::RunningStat put_ms;
  common::RunningStat get_ms;
  std::uint64_t ops_ok = 0;
  std::uint64_t ops_failed = 0;
  std::uint64_t ops_started = 0;  // fresh ops issued (first attempts)
  std::uint64_t meta_stats = 0;  // client-side metadata stats issued
  std::uint64_t retries = 0;  // attempts beyond each op's first
  std::uint64_t tenants_finished = 0;
  common::SimDuration last_completion = 0;  // fleet makespan (virtual)
  /// Latest virtual completion of a failed attempt (retried or given up):
  /// the moment the fleet last *felt* a disruption. Recovery time is
  /// measured from the last disruption's end to here.
  common::SimDuration last_disruption_felt = 0;

  void note_op(bool is_put, bool ok, common::SimDuration latency,
               common::SimDuration completed_at) {
    latency_ms.add(common::to_ms(latency));
    (is_put ? put_ms : get_ms).add(common::to_ms(latency));
    ok ? ++ops_ok : ++ops_failed;
    if (completed_at > last_completion) last_completion = completed_at;
    if (!ok && completed_at > last_disruption_felt) {
      last_disruption_felt = completed_at;
    }
  }

  void note_retry(common::SimDuration failed_at) {
    ++retries;
    if (failed_at > last_disruption_felt) last_disruption_felt = failed_at;
  }
};

class Tenant final : public EventHandler {
 public:
  Tenant(std::uint64_t id, std::uint64_t seed, const TenantConfig& config,
         core::StorageClient& client, const common::Buffer& arena,
         FleetMetrics& metrics)
      : id_(id),
        rng_(seed),
        config_(config),
        client_(client),
        arena_(arena),
        metrics_(metrics),
        path_("t" + std::to_string(id) + "/o") {}

  /// One step: issue the next op, account it, schedule the next wakeup.
  void on_event(EventQueue& queue, common::SimDuration now) override;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] std::uint32_t ops_done() const { return ops_done_; }

 private:
  [[nodiscard]] common::Buffer draw_payload();
  [[nodiscard]] common::SimDuration draw_think();

  const std::uint64_t id_;
  common::Xoshiro256 rng_;
  const TenantConfig& config_;   // shared, fleet-owned
  core::StorageClient& client_;  // shared, fleet-owned
  const common::Buffer& arena_;  // shared, fleet-owned
  FleetMetrics& metrics_;        // shared, fleet-owned
  const std::string path_;       // "t<id>/o" — fits SSO
  std::uint32_t ops_done_ = 0;
  std::uint32_t attempt_ = 0;  // attempts of the in-flight op; 0 = fresh op
  common::SimDuration op_spent_ = 0;  // virtual time charged to it so far
  bool retry_is_put_ = false;  // kind of the op being retried
  bool has_object_ = false;  // first successful PUT landed
};

}  // namespace hyrd::sim
