// SimProvider: a complete simulated cloud storage provider — in-memory
// object store + latency model + price meter + availability state.
//
// Substitution note (see DESIGN.md §2): this stands in for the real
// S3/Azure/Aliyun/Rackspace REST endpoints the paper measured. Every
// quantity the paper evaluates (latency, monthly cost, transfer traffic)
// is produced by this class from the same request stream a real client
// would issue through the five GCS-API functions.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "cloud/billing.h"
#include "cloud/congestion.h"
#include "cloud/latency_model.h"
#include "cloud/memory_store.h"
#include "cloud/object_store.h"
#include "cloud/pricing.h"
#include "common/rng.h"

namespace hyrd::cloud {

struct ProviderConfig {
  std::string name;
  LatencyParams latency;
  PriceSchedule prices;
  ProviderCategory declared_category;  // Table II bottom row
};

/// Per-kind operation counters (traffic audit for Table I / §II-B claims).
struct OpCounters {
  std::uint64_t lists = 0;
  std::uint64_t gets = 0;
  std::uint64_t creates = 0;
  std::uint64_t puts = 0;
  std::uint64_t removes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t rejected_unavailable = 0;
  std::uint64_t throttled = 0;   // rejected 429 at the congestion-queue cap

  [[nodiscard]] std::uint64_t total_ops() const {
    return lists + gets + creates + puts + removes;
  }
};

class SimProvider final : public ObjectStore {
 public:
  SimProvider(ProviderConfig config, std::uint64_t seed);

  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] const ProviderConfig& config() const { return config_; }

  // --- The five GCS-API functions (paper §III-D) ---
  OpResult create(const std::string& container) override;
  OpResult put(const ObjectKey& key, common::Buffer data) override;
  GetResult get(const ObjectKey& key) override;
  OpResult remove(const ObjectKey& key) override;
  ListResult list(const std::string& container) override;
  GetResult get_range(const ObjectKey& key, std::uint64_t offset,
                      std::uint64_t length) override;
  OpResult put_range(const ObjectKey& key, std::uint64_t offset,
                     common::Buffer data) override;
  using ObjectStore::put;        // keep the ByteSpan adapters visible
  using ObjectStore::put_range;

  // --- Availability control (outage emulation) ---

  /// Transient availability flip. Bringing a *permanently failed* provider
  /// back online is refused: its store was wiped, so "recovering" it would
  /// serve empty GETs as if the data had returned. Returns whether the
  /// requested state is now in effect.
  bool set_online(bool online) {
    if (online && permanently_failed_.load()) return false;
    online_.store(online);
    return true;
  }
  [[nodiscard]] bool online() const { return online_.load(); }

  /// Takes the provider offline *and* wipes stored state (permanent
  /// provider failure rather than transient outage). Irreversible:
  /// set_online(true) is a refused no-op afterwards.
  void fail_permanently();
  [[nodiscard]] bool permanently_failed() const {
    return permanently_failed_.load();
  }

  // --- Congestion (scale-out contention emulation; see congestion.h) ---

  /// Installs (or clears) the bounded-capacity fair queue. Only requests
  /// issued under a common::VirtualScope — i.e. from the discrete-event
  /// scale-out engine — are subject to it; plain single-client traffic
  /// never queues, so enabling congestion does not perturb legacy paths.
  void set_congestion(std::optional<CongestionParams> params);
  [[nodiscard]] bool congestion_enabled() const;
  [[nodiscard]] CongestionStats congestion_stats() const;

  /// Fair-queue depth at virtual time `now` (0 when congestion is off).
  /// Read by the timeline sampler for the per-provider queue-depth series.
  [[nodiscard]] std::size_t congestion_depth(common::SimDuration now) const;

  /// Brownout emulation: multiplies every sampled latency. 1.0 = healthy;
  /// e.g. 8.0 models a provider that is reachable but badly degraded (the
  /// tail the hedged/first-k read paths exist to cut). Expected-latency
  /// queries are unaffected — a client plans against the advertised model
  /// and only the observed samples degrade, like a real brownout.
  void set_latency_scale(double scale) { latency_scale_.store(scale); }
  [[nodiscard]] double latency_scale() const { return latency_scale_.load(); }

  // --- Accounting ---
  [[nodiscard]] std::uint64_t stored_bytes() const {
    return store_.stored_bytes();
  }
  [[nodiscard]] std::uint64_t object_count() const {
    return store_.object_count();
  }
  [[nodiscard]] OpCounters counters() const;
  void reset_counters();

  BillingMeter& billing() { return billing_; }
  [[nodiscard]] const BillingMeter& billing() const { return billing_; }
  MonthlyBill close_month() { return billing_.close_month(stored_bytes()); }

  [[nodiscard]] const LatencyModel& latency_model() const { return latency_; }

  /// Direct access to backing state for white-box tests and audits.
  MemoryStore& raw_store() { return store_; }

  /// Test hook invoked at the start of every op (after the availability
  /// check, before touching the store; create and list pass the container
  /// with an empty object name). Lets tests observe or
  /// deliberately stall a specific request — e.g. to prove client code
  /// holds no locks across provider I/O. Not used in production paths.
  using OpHook = std::function<void(OpKind, const ObjectKey&)>;
  void set_op_hook(OpHook hook) { op_hook_ = std::move(hook); }

 private:
  void run_op_hook(OpKind op, const ObjectKey& key) const {
    if (op_hook_) op_hook_(op, key);
  }

  /// Samples latency + updates billing under the provider lock.
  common::SimDuration charge(OpKind op, std::uint64_t bytes);
  OpResult unavailable_result();

  /// Congestion admission for one data-plane request. Returns a 429
  /// OpResult when the fair queue rejects it; otherwise writes the
  /// queueing delay (0 when uncontended or congestion is off) to *wait.
  std::optional<OpResult> admit(std::uint64_t bytes,
                                common::SimDuration* wait);

  ProviderConfig config_;
  MemoryStore store_;
  LatencyModel latency_;
  BillingMeter billing_;
  common::Xoshiro256 rng_;
  OpCounters counters_;
  std::unique_ptr<FairQueue> congestion_;  // guarded by mu_; null = off
  OpHook op_hook_;  // set before concurrent use; never mutated mid-test
  std::atomic<bool> online_{true};
  std::atomic<bool> permanently_failed_{false};
  std::atomic<double> latency_scale_{1.0};
  mutable std::mutex mu_;  // guards rng_, billing_, counters_
};

}  // namespace hyrd::cloud
