// hyrd_perfbench: end-to-end and per-layer benchmark of the HyRD client
// stack, assembled only from the library's public pieces (provider fleet,
// MultiCloudSession, HyRDClient, EventQueue, Tenant, FailureInjector).
//
//   hyrd_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//   hyrd_perfbench --selftest
//
// Workloads (parameters and reasons in perfbench/spec.json and README.md):
//   fleet-congested     1e5 closed-loop tenants, 4 KiB objects, 25 % writes
//   fleet-churn-outage  1e4 tenants, 16 KiB, 90 % writes, Aliyun offline for
//                       the middle third of virtual time
//   large-stripes       one threaded client cycling 1-8 MiB RAID5 objects
//                       through PUT/GET, degraded GET/overwrite, restore
//
// A run repeats fresh-fleet passes of a fixed, seeded amount of work until
// --seconds of measured wall time are used (at least one pass), checks the
// outputs, and prints two lines on stdout: a detail object ("report") and,
// last, {"correct","attempted","failed","metrics"}. --trace 1 replaces the
// end-to-end metrics with the per-layer ones (see run_traced()).
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "cloud/congestion.h"
#include "cloud/memory_store.h"
#include "cloud/profiles.h"
#include "cloud/registry.h"
#include "common/buffer.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "common/virtual_time.h"
#include "core/hyrd_client.h"
#include "dist/erasure_scheme.h"
#include "dist/replication.h"
#include "erasure/striper.h"
#include "gcsapi/async_batch.h"
#include "gcsapi/session.h"
#include "metadata/metadata_store.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "sim/failure.h"
#include "sim/scaleout.h"
#include "sim/tenant.h"

// --- Allocation counter ----------------------------------------------------
// Global operator new replacement: counts calls and bytes while enabled
// (traced runs only, so end-to-end runs pay one relaxed load per call).
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace hyrd;
namespace pb = perfbench;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kMiB = 1u << 20;
/// Flow id of restore-time resync traffic (as in sim::run_scaleout).
constexpr std::uint64_t kRepairFlowId = ~0ull;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

// --- Output ------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;  // 0 = not a sampled timing
};

class MetricSet {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    items_.push_back({std::move(name), value, std::move(unit), samples});
  }
  [[nodiscard]] std::string values_json() const {
    std::string out = "{";
    for (const Metric& m : items_) {
      if (out.size() > 1) out += ",";
      out += quote(m.name) + ":{\"value\":" + num(m.value) +
             ",\"unit\":" + quote(m.unit) + "}";
    }
    return out + "}";
  }
  [[nodiscard]] std::string samples_json() const {
    std::string out = "{";
    for (const Metric& m : items_) {
      if (m.samples == 0) continue;
      if (out.size() > 1) out += ",";
      out += quote(m.name) + ":" + std::to_string(m.samples);
    }
    return out + "}";
  }

 private:
  std::vector<Metric> items_;
};

// --- Workloads -----------------------------------------------------------------

enum class Kind { kFleet, kStripes };

// large-stripes object sizes, and the ops a pass needs so that p99 has ten
// samples beyond it (a pass runs whole cycles until it has this many).
constexpr std::uint64_t kStripeMinBytes = 1 * kMiB;
constexpr std::uint64_t kStripeMaxBytes = 8 * kMiB;
constexpr std::size_t kMinPassOps = 1000;

struct Workload {
  std::string name;
  Kind kind = Kind::kFleet;
  sim::ScaleoutConfig fleet;  // fleets: the tenant fleet, as run_scaleout takes it
  std::uint64_t working_set = 150 * kMiB;  // large-stripes
};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  Workload w;
  w.name = name;
  w.fleet.scheme = "HyRD";
  w.fleet.seed = seed;
  if (name == "fleet-congested") {
    w.fleet.tenants = smoke ? 2000 : 100000;
    w.fleet.tenant.ops = 4;
    w.fleet.tenant.write_ratio = 0.25;
    w.fleet.tenant.object_bytes = 4096;
    w.fleet.tenant.mean_think = 2 * common::kSecond;
  } else if (name == "fleet-churn-outage") {
    w.fleet.tenants = smoke ? 300 : 10000;
    w.fleet.tenant.ops = smoke ? 10 : 40;
    w.fleet.tenant.write_ratio = 0.9;
    w.fleet.tenant.object_bytes = 16384;
    w.fleet.tenant.mean_think = 2 * common::kSecond;
    // Aliyun (one of HyRD's two replica targets) is offline for the middle
    // third of the planned virtual makespan: ramp + ops x mean think.
    const common::SimDuration span =
        w.fleet.ramp + static_cast<common::SimDuration>(w.fleet.tenant.ops) *
                           w.fleet.tenant.mean_think;
    w.fleet.campaign.enabled = true;
    w.fleet.campaign.outage_providers = {"Aliyun"};
    w.fleet.campaign.outage_at = span / 3;
    w.fleet.campaign.outage_duration = span / 3;
  } else if (name == "large-stripes") {
    w.kind = Kind::kStripes;
    if (smoke) w.working_set = 12 * kMiB;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

/// large-stripes: the number of paths, and the whole cycles a pass runs.
std::size_t stripe_paths(const Workload& w) {
  const std::uint64_t mean = (kStripeMinBytes + kStripeMaxBytes) / 2;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>((w.working_set + mean / 2) / mean));
}
std::size_t stripe_cycles(std::size_t paths) {
  return std::max<std::size_t>(1, (kMinPassOps + 4 * paths - 1) / (4 * paths));
}

/// Object size of a fleet tenant, or the median stripe size.
std::uint64_t object_bytes_of(const Workload& w) {
  return w.kind == Kind::kFleet ? w.fleet.tenant.object_bytes
                                : (kStripeMinBytes + kStripeMaxBytes) / 2;
}

/// The workload's effective parameters. run.py refuses a full-size run
/// whose parameters differ from spec.json's, so the two cannot drift apart.
std::string params_json(const Workload& w) {
  const auto field = [](const char* key, double v) {
    return "\"" + std::string(key) + "\":" + num(v);
  };
  if (w.kind == Kind::kStripes) {
    const std::size_t n = stripe_paths(w);
    return "{" + field("paths", n) + "," +
           field("min_object_bytes", kStripeMinBytes) + "," +
           field("max_object_bytes", kStripeMaxBytes) + "," +
           field("working_set_bytes", w.working_set) + "," +
           field("cycles_per_pass", stripe_cycles(n)) + "}";
  }
  const sim::ScaleoutConfig& c = w.fleet;
  std::string out = "{" + field("tenants", c.tenants) + "," +
                    field("ops_per_tenant", c.tenant.ops) + "," +
                    field("object_bytes", c.tenant.object_bytes) + "," +
                    field("write_ratio", c.tenant.write_ratio) + "," +
                    field("mean_think_s", common::to_seconds(c.tenant.mean_think)) + "," +
                    field("ramp_s", common::to_seconds(c.ramp));
  if (c.campaign.enabled) {
    out += ",\"outage_providers\":[";
    for (std::size_t i = 0; i < c.campaign.outage_providers.size(); ++i) {
      out += (i > 0 ? "," : "") + quote(c.campaign.outage_providers[i]);
    }
    out += "]," + field("outage_at_s", common::to_seconds(c.campaign.outage_at)) + "," +
           field("outage_duration_s", common::to_seconds(c.campaign.outage_duration));
  }
  return out + "}";
}

// --- Shared pass accounting -----------------------------------------------------

using CounterMap = std::map<std::string, std::uint64_t>;

CounterMap counters_now() {
  return obs::MetricsRegistry::global().snapshot().counters;
}

std::uint64_t delta(const CounterMap& before, const CounterMap& after,
                    const std::string& key) {
  const auto a = after.find(key);
  if (a == after.end()) return 0;
  const auto b = before.find(key);
  return a->second - (b == before.end() ? 0 : b->second);
}

struct Samples {
  std::vector<double> put_us, get_us, degraded_get_us, op_us;  // wall
  std::vector<double> vlat_ms, degraded_vlat_ms;               // virtual
};

/// The op stream of a pass cut into equal slices of completed ops, each
/// timed: the median slice rate is a throughput that a short slowdown of
/// the host moves less than the whole-pass mean does. A slice must hold the
/// same op mix as the others, or the median lands between op kinds.
class Slices {
 public:
  void start(std::uint64_t pass_ops, std::uint64_t slices) {
    every_ = std::max<std::uint64_t>(1, pass_ops / std::max<std::uint64_t>(1, slices));
    last_ = Clock::now();
  }
  void note(std::uint64_t bytes) {
    bytes_ += bytes;
    if (++ops_ < every_) return;
    const double dt = us_since(last_) / 1e6;
    ops_s.push_back(static_cast<double>(ops_) / dt);
    mb_s.push_back(static_cast<double>(bytes_) / 1e6 / dt);
    last_ = Clock::now();
    ops_ = bytes_ = 0;
  }

  std::vector<double> ops_s, mb_s;

 private:
  std::uint64_t every_ = 1, ops_ = 0, bytes_ = 0;
  Clock::time_point last_;
};

struct PassResult {
  Samples s;
  Slices slices;
  double wall_s = 0;  // measured phase only
  std::uint64_t user_bytes = 0;  // payload moved by completed client ops
  std::uint64_t client_puts = 0, client_gets = 0, client_degraded_gets = 0;
  pb::PassCounts counts;
  double cost_usd = 0;
  std::size_t peak_queue_depth = 0;
  std::uint64_t fq_throttled = 0, gcs_retries = 0, hedges = 0;
  std::uint64_t encode_bytes = 0, crc_bytes = 0, bytes_copied = 0;
  std::uint64_t allocs = 0, alloc_bytes = 0;
  std::uint64_t provider_puts = 0, provider_gets = 0;
  double resync_ms = 0;
  std::uint64_t log_records = 0;  // update-log size at each restore, summed
  double mean_pending = 1;        // event-queue pending count per step
  std::string fingerprint;        // deterministic fields, equal across passes
  std::string restore_detail;     // JSON object; outage runs only
  std::vector<std::string> errors;

  void error(std::string e) {
    if (errors.size() < 8) errors.push_back(std::move(e));
  }
};

/// Deepest any provider's fair queue has been so far.
std::size_t peak_queue_depth(const cloud::CloudRegistry& registry) {
  std::size_t peak = 0;
  for (const auto& p : registry.all()) {
    if (p->congestion_enabled()) peak = std::max(peak, p->congestion_stats().peak_depth);
  }
  return peak;
}

/// Provider-side totals read after the measured phase.
void read_fleet_totals(const cloud::CloudRegistry& registry, PassResult& r) {
  for (const auto& p : registry.all()) {
    const cloud::OpCounters c = p->counters();
    r.counts.provider_ops += c.total_ops();
    r.counts.provider_bytes_written += c.bytes_written;
    r.counts.provider_bytes_read += c.bytes_read;
    r.counts.provider_stored_bytes += p->stored_bytes();
    r.provider_puts += c.puts;
    r.provider_gets += c.gets;
    r.cost_usd += p->billing().open_month_transfer_cost();
  }
  r.peak_queue_depth = peak_queue_depth(registry);
}

void read_registry_deltas(const CounterMap& before, const CounterMap& after,
                          PassResult& r) {
  r.counts.gcs_ops = delta(before, after, "gcs.ops");
  r.counts.gcs_attempts = delta(before, after, "gcs.attempts");
  r.counts.fq_admitted = delta(before, after, "cloud.fq.admitted");
  r.counts.fq_queued = delta(before, after, "cloud.fq.queued");
  r.counts.fq_wait_ns = delta(before, after, "cloud.fq.wait_ns");
  r.fq_throttled = delta(before, after, "cloud.fq.throttled");
  r.gcs_retries = delta(before, after, "gcs.retries");
  r.hedges = delta(before, after, "scheme.hedges");
  r.encode_bytes = delta(before, after, "scheme.encode_bytes");
  r.crc_bytes = delta(before, after, "scheme.crc_bytes");
  r.bytes_copied = delta(before, after, "common.bytes_copied");
}

void reset_provider_accounting(cloud::CloudRegistry& registry) {
  for (const auto& p : registry.all()) {
    p->reset_counters();
    p->billing().reset();
  }
}

// --- Fleet workloads --------------------------------------------------------------

/// Seeded payload arena, byte-identical to run_scaleout's, so tenants store
/// the same bytes (and CRCs) as the program's own harness.
common::Buffer make_arena(std::size_t bytes, std::uint64_t seed) {
  common::MutableBuffer arena(bytes);
  common::SplitMix64 mixer(seed);
  std::uint8_t* p = arena.data();
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    const std::uint64_t word = mixer.next();
    std::memcpy(p + i, &word, 8);
  }
  if (i < bytes) {
    const std::uint64_t word = mixer.next();
    std::memcpy(p + i, &word, bytes - i);
  }
  return std::move(arena).freeze();
}

/// One tenant fleet over a fresh provider set, wired the way
/// sim::run_scaleout wires it.
struct Fleet {
  explicit Fleet(const sim::ScaleoutConfig& c) : cfg(c) {}
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  sim::ScaleoutConfig cfg;  // tenants keep a reference to cfg.tenant
  cloud::CloudRegistry registry;
  std::unique_ptr<gcs::MultiCloudSession> session;
  std::unique_ptr<core::HyRDClient> client;
  common::Buffer arena;
  sim::FleetMetrics metrics;
  sim::EventQueue queue;
  std::vector<sim::Tenant> tenants;
  std::optional<sim::FailureInjector> injector;
  double resync_ms = 0;
  std::uint64_t log_records = 0;
  // Taken at the restore (restored_at stays 0 when there is none).
  common::SimDuration restored_at = 0;
  std::size_t depth_before_restore = 0, depth_after_resync = 0;
  std::uint64_t fq_wait_ns_at_restore = 0;  // registry counter, absolute
};

std::unique_ptr<Fleet> build_fleet(const sim::ScaleoutConfig& cfg) {
  auto f = std::make_unique<Fleet>(cfg);
  cloud::install_standard_four(f->registry, cfg.seed);
  if (cfg.congestion_enabled) {
    for (const auto& p : f->registry.all()) p->set_congestion(cfg.congestion);
  }
  f->session =
      std::make_unique<gcs::MultiCloudSession>(f->registry, cfg.client_retry);
  f->client = std::make_unique<core::HyRDClient>(*f->session);
  reset_provider_accounting(f->registry);
  f->client->configure_cache(cfg.cache);

  f->arena = make_arena(cfg.arena_bytes, cfg.seed ^ 0xa5a5a5a5a5a5a5a5ull);
  f->tenants.reserve(cfg.tenants);  // the queue holds raw pointers
  common::SplitMix64 seeder(cfg.seed);
  for (std::size_t i = 0; i < cfg.tenants; ++i) {
    f->tenants.emplace_back(static_cast<std::uint64_t>(i), seeder.next(),
                            f->cfg.tenant, *f->client, f->arena, f->metrics);
  }
  for (std::size_t i = 0; i < cfg.tenants; ++i) {
    const common::SimDuration at =
        cfg.tenants <= 1
            ? 0
            : static_cast<common::SimDuration>(
                  static_cast<double>(cfg.ramp) * static_cast<double>(i) /
                  static_cast<double>(cfg.tenants));
    f->queue.schedule_at(at, &f->tenants[i]);
  }

  if (cfg.campaign.enabled && !cfg.campaign.outage_providers.empty()) {
    f->injector.emplace(f->registry, f->queue);
    f->injector->schedule_outage(cfg.campaign.outage_providers,
                                 cfg.campaign.outage_at,
                                 cfg.campaign.outage_duration);
    Fleet* raw = f.get();
    f->injector->set_restore_listener(
        [raw](const std::string& name, common::SimDuration at) {
          common::VirtualScope scope({at, kRepairFlowId, 1.0});
          raw->restored_at = at;
          raw->depth_before_restore = peak_queue_depth(raw->registry);
          raw->fq_wait_ns_at_restore = counters_now()["cloud.fq.wait_ns"];
          raw->log_records += raw->client->update_log().size();
          const auto t0 = Clock::now();
          raw->client->on_provider_restored(name);
          raw->resync_ms += us_since(t0) / 1000.0;
          raw->depth_after_resync = peak_queue_depth(raw->registry);
        });
  }
  return f;
}

/// The deterministic report fields of a finished fleet, computed exactly as
/// sim::run_scaleout computes them (cache and timeline are off here).
sim::ScaleoutReport report_of(const Fleet& f) {
  sim::ScaleoutReport r;
  const sim::FleetMetrics& m = f.metrics;
  r.scheme = f.cfg.scheme;
  r.seed = f.cfg.seed;
  r.tenants = f.cfg.tenants;
  r.ops_ok = m.ops_ok;
  r.ops_failed = m.ops_failed;
  r.events_dispatched = f.queue.dispatched();
  for (const auto& p : f.registry.all()) {
    const cloud::OpCounters c = p->counters();
    r.provider_ops += c.total_ops();
    r.provider_throttled += c.throttled;
    if (p->congestion_enabled()) {
      r.peak_queue_depth =
          std::max(r.peak_queue_depth, p->congestion_stats().peak_depth);
    }
  }
  r.virtual_seconds = common::to_seconds(m.last_completion);
  r.throughput_ops_per_vs =
      r.virtual_seconds > 0 ? static_cast<double>(r.ops_ok) / r.virtual_seconds
                            : 0.0;
  const std::size_t n_lat = m.latency_ms.total();
  r.mean_ms = n_lat ? (m.put_ms.sum() + m.get_ms.sum()) /
                          static_cast<double>(n_lat)
                    : 0.0;
  r.p50_ms = m.latency_ms.percentile(50.0);
  r.p90_ms = m.latency_ms.percentile(90.0);
  r.p99_ms = m.latency_ms.percentile(99.0);
  r.p999_ms = m.latency_ms.percentile(99.9);
  r.put_mean_ms = m.put_ms.mean();
  r.get_mean_ms = m.get_ms.mean();
  r.meta_stats = m.meta_stats;
  r.retries = m.retries;
  const std::uint64_t ops_total = r.ops_ok + r.ops_failed;
  r.retry_amplification =
      ops_total ? static_cast<double>(ops_total + r.retries) /
                      static_cast<double>(ops_total)
                : 1.0;
  r.goodput_ops_per_vs = r.throughput_ops_per_vs;
  if (f.injector.has_value()) {
    r.failure_events = f.injector->log().size();
    const common::SimDuration lifted = f.injector->last_transient_end();
    if (lifted > 0 && m.last_disruption_felt > lifted) {
      r.recovery_virtual_seconds =
          common::to_seconds(m.last_disruption_felt - lifted);
    }
  }
  for (const auto& p : f.registry.all()) {
    if (p->permanently_failed() && p->online()) r.provider_resurrected = 1;
  }
  return r;
}

/// Drives the event loop one step at a time, timing each step that
/// completes a client op (the op's wall cost, tenant logic included).
PassResult run_fleet(Fleet& f) {
  PassResult r;
  sim::FleetMetrics& m = f.metrics;
  const std::uint64_t object_bytes = f.cfg.tenant.object_bytes;
  r.s.put_us.reserve(f.cfg.tenants * f.cfg.tenant.ops);
  r.s.get_us.reserve(f.cfg.tenants * f.cfg.tenant.ops);
  r.s.op_us.reserve(f.cfg.tenants * f.cfg.tenant.ops);
  r.s.vlat_ms.reserve(f.cfg.tenants * f.cfg.tenant.ops);

  const CounterMap before = counters_now();
  const std::uint64_t allocs0 = g_allocs.load();
  const std::uint64_t alloc_bytes0 = g_alloc_bytes.load();
  double pending_sum = 0;
  std::uint64_t steps = 0;
  std::size_t restore_index = SIZE_MAX;  // first op issued after the restore
  r.slices.start(f.cfg.tenants * f.cfg.tenant.ops, 32);
  const auto t0 = Clock::now();
  for (;;) {
    if (restore_index == SIZE_MAX && f.restored_at > 0) restore_index = r.s.vlat_ms.size();
    const std::size_t puts = m.put_ms.count();
    const std::size_t gets = m.get_ms.count();
    const double put_sum = m.put_ms.sum();
    const double get_sum = m.get_ms.sum();
    pending_sum += static_cast<double>(f.queue.pending());
    const auto ts = Clock::now();
    if (!f.queue.step()) break;
    const double dt = us_since(ts);
    ++steps;
    if (m.put_ms.count() != puts) {
      r.s.put_us.push_back(dt);
      r.s.op_us.push_back(dt);
      r.s.vlat_ms.push_back(m.put_ms.sum() - put_sum);
      r.slices.note(object_bytes);
    } else if (m.get_ms.count() != gets) {
      r.s.get_us.push_back(dt);
      r.s.op_us.push_back(dt);
      r.s.vlat_ms.push_back(m.get_ms.sum() - get_sum);
      r.slices.note(object_bytes);
    }
  }
  r.wall_s = us_since(t0) / 1e6;
  r.allocs = g_allocs.load() - allocs0;
  r.alloc_bytes = g_alloc_bytes.load() - alloc_bytes0;
  const CounterMap after = counters_now();
  read_registry_deltas(before, after, r);
  read_fleet_totals(f.registry, r);

  r.client_puts = m.put_ms.count();
  r.client_gets = m.get_ms.count();
  r.counts.client_ops = m.ops_ok + m.ops_failed;
  r.counts.failed_ops = m.ops_failed;
  r.counts.user_bytes_written = r.client_puts * object_bytes;
  r.counts.user_bytes_read = r.client_gets * object_bytes;
  r.counts.events = f.queue.dispatched();
  r.user_bytes = r.counts.user_bytes_written + r.counts.user_bytes_read;
  r.mean_pending = steps ? pending_sum / static_cast<double>(steps) : 1.0;
  r.resync_ms = f.resync_ms;
  r.log_records = f.log_records;
  r.fingerprint = sim::report_to_json(report_of(f), false) + " cost=" +
                  num(r.cost_usd) +
                  " stored=" + std::to_string(r.counts.provider_stored_bytes);
  if (m.tenants_finished != f.cfg.tenants) r.error("not every tenant finished");

  if (f.restored_at > 0) {
    // Where an outage run's fair-queue backlog comes from: queue depth
    // before the restore and right after its resync burst, the share of
    // all fair-queue wait that came after the restore, and the virtual p99
    // of the ops issued before and after it.
    const auto cut = r.s.vlat_ms.begin() +
                     static_cast<std::ptrdiff_t>(std::min(restore_index, r.s.vlat_ms.size()));
    const std::vector<double> before_v(r.s.vlat_ms.begin(), cut);
    const std::vector<double> after_v(cut, r.s.vlat_ms.end());
    const double wait_after = static_cast<double>(
        after.at("cloud.fq.wait_ns") - f.fq_wait_ns_at_restore);
    r.restore_detail =
        "{\"peak_queue_depth_before_restore\":" + std::to_string(f.depth_before_restore) +
        ",\"peak_queue_depth_after_resync\":" + std::to_string(f.depth_after_resync) +
        ",\"update_log_records_at_restore\":" + std::to_string(f.log_records) +
        ",\"fq_wait_share_after_restore\":" +
        num(pb::ratio(wait_after, static_cast<double>(r.counts.fq_wait_ns))) +
        ",\"vlat_p99_ms_before_restore\":" + num(pb::percentile(before_v, 99)) +
        ",\"vlat_p99_ms_after_restore\":" + num(pb::percentile(after_v, 99)) +
        ",\"ops_after_restore\":" + std::to_string(after_v.size()) + "}";
  }
  return r;
}

std::string tenant_path(std::size_t i) { return "t" + std::to_string(i) + "/o"; }

constexpr std::size_t kDegradedProbeReads = 200000;

/// Output checks: reads every tenant's object back with all providers
/// online, then again with the first-choice replica offline (the degraded
/// probe, whose GETs are timed), comparing each against stat()'s CRC.
void check_fleet(Fleet& f, PassResult& r) {
  for (const auto& p : f.registry.all()) p->set_congestion(std::nullopt);
  const auto read_all = [&](bool degraded_probe) {
    std::uint64_t live = 0;
    std::size_t degraded = 0;
    for (std::size_t i = 0; i < f.tenants.size(); ++i) {
      const std::string path = tenant_path(i);
      const auto meta = f.client->stat(path);
      if (!meta) {
        r.error("no metadata for " + path);
        continue;
      }
      live += meta->size;
      common::VirtualScope scope({0, i, 1.0});
      const auto t0 = Clock::now();
      const dist::ReadResult got = f.client->get(path);
      const double dt = us_since(t0);
      if (!got.status.is_ok() || got.data.size() != meta->size ||
          common::crc32c(got.data) != meta->crc) {
        r.error((degraded_probe ? "degraded read of " : "read of ") + path +
                " does not match its metadata");
        continue;
      }
      if (degraded_probe) {
        degraded += got.degraded ? 1 : 0;
        r.s.degraded_get_us.push_back(dt);
        r.s.degraded_vlat_ms.push_back(common::to_ms(got.latency));
      }
    }
    if (degraded_probe && degraded == 0) r.error("degraded probe never degraded");
    return live;
  };
  r.counts.live_user_bytes = read_all(false);

  // The probe repeats whole read-backs up to kDegradedProbeReads GETs, so
  // its timing spans about a second instead of a few milliseconds.
  const std::size_t first = f.client->replica_targets().front();
  cloud::SimProvider* down = f.session->client(first).provider();
  down->set_online(false);
  const std::size_t rounds =
      std::max<std::size_t>(1, kDegradedProbeReads / std::max<std::size_t>(1, f.tenants.size()));
  for (std::size_t i = 0; i < rounds; ++i) (void)read_all(true);
  down->set_online(true);  // GETs log nothing, so there is nothing to resync
  r.client_degraded_gets = 0;  // the probe is not part of the op mix
}

/// The equivalence check: at a small tenant count, this benchmark's fleet
/// loop and sim::run_scaleout must produce the same deterministic report
/// bytes.
std::string check_equivalence(const Workload& w) {
  sim::ScaleoutConfig cfg = w.fleet;
  cfg.tenants = 300;
  auto f = build_fleet(cfg);
  (void)run_fleet(*f);
  const std::string mine = sim::report_to_json(report_of(*f), false);
  const std::string theirs =
      sim::report_to_json(sim::run_scaleout(cfg), false);
  if (mine != theirs) {
    return "fleet loop differs from run_scaleout: " + mine + " vs " + theirs;
  }
  return "";
}

// --- large-stripes ------------------------------------------------------------------

constexpr std::size_t kVersions = 16;
constexpr std::uint64_t kVersionShift = 64 * 1024;

/// One threaded HyRD client over a fresh fleet, plus the pre-generated
/// payloads of its fixed path set.
struct StripeRig {
  StripeRig() = default;
  StripeRig(const StripeRig&) = delete;
  StripeRig& operator=(const StripeRig&) = delete;

  cloud::CloudRegistry registry;
  std::unique_ptr<gcs::MultiCloudSession> session;
  std::unique_ptr<core::HyRDClient> client;
  common::Buffer arena;
  std::vector<std::string> paths;
  std::vector<std::uint64_t> sizes, base;
  std::vector<std::size_t> version;  // last version written per path

  /// Version v of path i: a window of the arena shifted by v.
  [[nodiscard]] common::Buffer payload(std::size_t i, std::size_t v) const {
    return arena.slice(base[i] + (v % kVersions) * kVersionShift, sizes[i]);
  }
};

std::size_t session_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

std::unique_ptr<StripeRig> build_stripes(const Workload& w,
                                         std::uint64_t seed) {
  auto rig = std::make_unique<StripeRig>();
  cloud::install_standard_four(rig->registry, seed);
  rig->session = std::make_unique<gcs::MultiCloudSession>(
      rig->registry, gcs::RetryPolicy{}, session_threads());
  rig->client = std::make_unique<core::HyRDClient>(*rig->session);
  reset_provider_accounting(rig->registry);

  // Stratified sizes: path i draws from the i-th of n equal slices of
  // [min, max], so every seed has nearly the same size mix; the seed picks
  // the position inside each slice and the path order.
  common::Xoshiro256 rng(seed ^ 0x5eed5eed5eed5eedull);
  const std::size_t n = stripe_paths(w);
  const double span = static_cast<double>(kStripeMaxBytes - kStripeMinBytes);
  for (std::size_t i = 0; i < n; ++i) {
    const double at = (static_cast<double>(i) + rng.uniform()) /
                      static_cast<double>(n);
    rig->sizes.push_back(kStripeMinBytes + static_cast<std::uint64_t>(at * span));
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(rig->sizes[i - 1], rig->sizes[rng() % i]);
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    rig->paths.push_back("/stripes/d" + std::to_string(i % 4) + "/obj" +
                         std::to_string(i));
    rig->base.push_back(total);
    total += rig->sizes[i];
  }
  rig->version.assign(n, 0);
  // The payloads are the benchmark's input, not HyRD's set-up work, so the
  // process makes them once and every build shares them. Only the first
  // build pays for them; setup_s is the median of at least 15 builds.
  // Made per build, the fresh 150 MiB dominated setup_s, and page faults
  // made it swing by a third between two sets of runs.
  static common::Buffer arena;
  const std::uint64_t arena_bytes = total + kVersions * kVersionShift;
  static std::uint64_t arena_seed = 0;
  if (arena.size() != arena_bytes || arena_seed != seed) {
    arena = make_arena(arena_bytes, seed);
    arena_seed = seed;
  }
  rig->arena = arena;
  return rig;
}

/// One client call, timed into `wall_us`; stores its virtual latency (ms)
/// and returns whether it succeeded.
template <typename Fn>
bool timed(std::vector<double>& wall_us, Fn&& fn, double* vlat_ms) {
  const auto t0 = Clock::now();
  const auto result = fn();
  wall_us.push_back(us_since(t0));
  *vlat_ms = common::to_ms(result.latency);
  return result.status.is_ok();
}

/// Whole cycles of: PUT + GET every path; with the first shard provider
/// offline, degraded GET + overwrite PUT every path; timed restore.
PassResult run_stripes(StripeRig& rig) {
  PassResult r;
  core::HyRDClient& client = *rig.client;
  cloud::SimProvider* down =
      rig.session->client(client.shard_slots().front()).provider();
  const std::size_t n = rig.paths.size();
  const std::size_t cycles = stripe_cycles(n);

  const CounterMap before = counters_now();
  const std::uint64_t allocs0 = g_allocs.load();
  const std::uint64_t alloc_bytes0 = g_alloc_bytes.load();
  std::size_t degraded = 0;
  std::size_t v = 0;
  const auto note = [&](std::vector<double>& wall, bool ok, double vlat,
                        std::uint64_t bytes, bool is_put, bool is_degraded) {
    r.s.op_us.push_back(wall.back());
    r.s.vlat_ms.push_back(vlat);
    if (is_degraded) r.s.degraded_vlat_ms.push_back(vlat);
    ++r.counts.client_ops;
    r.slices.note(ok ? bytes : 0);
    if (!ok) {
      ++r.counts.failed_ops;
      return;
    }
    (is_put ? r.counts.user_bytes_written : r.counts.user_bytes_read) += bytes;
  };
  const auto put_all = [&](std::size_t version) {
    for (std::size_t i = 0; i < n; ++i) {
      double vlat = 0;
      const bool ok = timed(
          r.s.put_us,
          [&] { return client.put(rig.paths[i], rig.payload(i, version)); },
          &vlat);
      if (ok) rig.version[i] = version;
      ++r.client_puts;
      note(r.s.put_us, ok, vlat, rig.sizes[i], true, false);
    }
  };
  const auto get_all = [&](bool is_degraded) {
    auto& wall = is_degraded ? r.s.degraded_get_us : r.s.get_us;
    for (std::size_t i = 0; i < n; ++i) {
      double vlat = 0;
      bool was_degraded = false;
      const bool ok = timed(
          wall,
          [&] {
            dist::ReadResult got = client.get(rig.paths[i]);
            was_degraded = got.degraded;
            return got;
          },
          &vlat);
      degraded += was_degraded ? 1 : 0;
      ++(is_degraded ? r.client_degraded_gets : r.client_gets);
      note(wall, ok, vlat, rig.sizes[i], false, is_degraded);
    }
  };

  r.slices.start(cycles * 4 * n, cycles);  // one slice per whole cycle
  const auto t0 = Clock::now();
  for (std::size_t c = 0; c < cycles; ++c) {
    put_all(v);
    get_all(false);
    down->set_online(false);
    get_all(true);
    put_all(++v);
    down->set_online(true);
    r.log_records += client.update_log().size();
    const auto tr = Clock::now();
    client.on_provider_restored(down->name());
    r.resync_ms += us_since(tr) / 1000.0;
    ++v;
  }
  r.wall_s = us_since(t0) / 1e6;
  r.allocs = g_allocs.load() - allocs0;
  r.alloc_bytes = g_alloc_bytes.load() - alloc_bytes0;
  read_registry_deltas(before, counters_now(), r);
  read_fleet_totals(rig.registry, r);
  r.user_bytes = r.counts.user_bytes_written + r.counts.user_bytes_read;
  if (degraded == 0) r.error("no stripe GET ran degraded");

  double vsum = 0;
  for (double x : r.s.vlat_ms) vsum += x;
  r.fingerprint = "ops=" + std::to_string(r.counts.client_ops) +
                  " failed=" + std::to_string(r.counts.failed_ops) +
                  " provider_ops=" + std::to_string(r.counts.provider_ops) +
                  " vsum=" + num(vsum) + " cost=" + num(r.cost_usd) +
                  " stored=" + std::to_string(r.counts.provider_stored_bytes);
  return r;
}

/// Output check: every path read back with all providers online equals the
/// last payload written to it, byte for byte, and its stat() CRC.
void check_stripes(StripeRig& rig, PassResult& r) {
  for (std::size_t i = 0; i < rig.paths.size(); ++i) {
    const auto meta = rig.client->stat(rig.paths[i]);
    const dist::ReadResult got = rig.client->get(rig.paths[i]);
    const common::Buffer want = rig.payload(i, rig.version[i]);
    if (!meta || !got.status.is_ok() || got.data.size() != want.size() ||
        std::memcmp(got.data.data(), want.data(), want.size()) != 0 ||
        common::crc32c(got.data) != meta->crc) {
      r.error("read-back of " + rig.paths[i] + " differs from its last write");
      continue;
    }
    r.counts.live_user_bytes += meta->size;
  }
}

// --- One measured pass, workload-agnostic ---------------------------------------------

/// A built-but-unrun workload instance (exactly one member is set).
struct Instance {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<StripeRig> stripes;

  [[nodiscard]] cloud::CloudRegistry& registry() {
    return fleet ? fleet->registry : stripes->registry;
  }
};

Instance build(const Workload& w, std::uint64_t seed) {
  Instance in;
  if (w.kind == Kind::kFleet) {
    in.fleet = build_fleet(w.fleet);
  } else {
    in.stripes = build_stripes(w, seed);
  }
  return in;
}

PassResult run_pass(Instance& in) {
  return in.fleet ? run_fleet(*in.fleet) : run_stripes(*in.stripes);
}

void check(Instance& in, PassResult& r) {
  if (in.fleet) {
    check_fleet(*in.fleet, r);
  } else {
    check_stripes(*in.stripes, r);
  }
}

// --- Traced run: op recording and per-layer replay ------------------------------------------

struct OpRecord {
  std::uint8_t provider = 0;
  cloud::OpKind kind = cloud::OpKind::kGet;
  bool scoped = false;  // issued under a VirtualScope (the event loop)
  std::uint64_t tenant = 0;
  double weight = 1.0;
  common::SimDuration arrival = 0;
  std::uint64_t bytes = 0;  // resolved after the pass from the store
  cloud::ObjectKey key;
};

/// Records each provider data-plane op via SimProvider's op hook. Hooks run
/// on the session pool's threads in threaded workloads, hence the mutex.
class OpRecorder {
 public:
  static constexpr std::size_t kCap = std::size_t{1} << 19;

  void install(cloud::CloudRegistry& registry) {
    for (std::size_t i = 0; i < registry.all().size(); ++i) {
      registry.all()[i]->set_op_hook(
          [this, i](cloud::OpKind kind, const cloud::ObjectKey& key) {
            record(static_cast<std::uint8_t>(i), kind, key);
          });
    }
  }

  /// Fills in payload sizes from the provider stores (objects keep their
  /// size across overwrites in every workload here).
  void resolve_sizes(cloud::CloudRegistry& registry) {
    std::lock_guard lock(mu_);
    for (OpRecord& op : ops_) {
      op.bytes = registry.all()[op.provider]
                     ->raw_store()
                     .object_size(op.key.container, op.key.name)
                     .value_or(0);
    }
  }

  [[nodiscard]] std::vector<OpRecord> take() {
    std::lock_guard lock(mu_);
    return std::move(ops_);
  }

 private:
  void record(std::uint8_t provider, cloud::OpKind kind,
              const cloud::ObjectKey& key) {
    OpRecord op;
    op.provider = provider;
    op.kind = kind;
    if (const common::VirtualContext* ctx = common::VirtualScope::current()) {
      op.scoped = true;
      op.tenant = ctx->tenant;
      op.weight = ctx->weight;
      op.arrival = ctx->now;
    }
    std::lock_guard lock(mu_);
    if (ops_.size() >= kCap) return;
    op.key = key;
    ops_.push_back(std::move(op));
  }

  std::mutex mu_;
  std::vector<OpRecord> ops_;
};

/// Mean of per-call times, split by put/get.
struct PutGetMean {
  double put_sum = 0, get_sum = 0;
  std::size_t puts = 0, gets = 0;
  void add(bool is_put, double t) {
    (is_put ? put_sum : get_sum) += t;
    ++(is_put ? puts : gets);
  }
  [[nodiscard]] double put() const { return pb::ratio(put_sum, static_cast<double>(puts)); }
  [[nodiscard]] double get() const { return pb::ratio(get_sum, static_cast<double>(gets)); }
};

std::set<std::string> containers_of(const std::vector<OpRecord>& ops) {
  std::set<std::string> out;
  for (const OpRecord& op : ops) out.insert(op.key.container);
  return out;
}

bool is_data_op(const OpRecord& op) {
  return op.kind == cloud::OpKind::kPut || op.kind == cloud::OpKind::kGet;
}

/// Synthetic arrival for ops issued outside the event loop: 1 ms apart.
common::SimDuration arrival_of(const OpRecord& op, std::size_t index) {
  return op.scoped ? op.arrival
                   : static_cast<common::SimDuration>(index) *
                         common::kMillisecond;
}

/// MemoryStore replay of the recorded op mix (ns per call).
PutGetMean replay_store(const std::vector<OpRecord>& ops,
                        const common::Buffer& payload) {
  std::vector<cloud::MemoryStore> stores(4);
  for (auto& s : stores) {
    for (const auto& c : containers_of(ops)) (void)s.create(c);
  }
  PutGetMean t;
  for (const OpRecord& op : ops) {
    if (!is_data_op(op) || op.provider >= stores.size()) continue;
    cloud::MemoryStore& s = stores[op.provider];
    const bool is_put = op.kind == cloud::OpKind::kPut;
    const common::Buffer data =
        is_put ? payload.slice(0, std::min<std::uint64_t>(op.bytes, payload.size()))
               : common::Buffer();
    const auto t0 = Clock::now();
    if (is_put) {
      (void)s.put(op.key.container, op.key.name, data);
    } else {
      (void)s.get(op.key.container, op.key.name);
    }
    t.add(is_put, us_since(t0) * 1000.0);
  }
  return t;
}

/// FairQueue::admit replay of the recorded arrival stream (ns per admit).
double replay_fair_queue(const std::vector<OpRecord>& ops,
                         const cloud::CongestionParams& params) {
  std::vector<cloud::FairQueue> queues(4, cloud::FairQueue(params));
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    if (op.provider >= queues.size()) continue;
    const auto t0 = Clock::now();
    (void)queues[op.provider].admit(op.tenant, op.weight, arrival_of(op, i),
                                    op.bytes);
    sum += us_since(t0) * 1000.0;
    ++n;
  }
  return pb::ratio(sum, static_cast<double>(n));
}

/// A fresh standard fleet with an (idle) HyRD client: the probe target.
struct ProbeRig {
  ProbeRig(std::uint64_t seed, std::size_t threads) {
    cloud::install_standard_four(registry, seed);
    session = std::make_unique<gcs::MultiCloudSession>(
        registry, gcs::RetryPolicy{}, threads);
    client = std::make_unique<core::HyRDClient>(*session);
  }
  ProbeRig(const ProbeRig&) = delete;
  ProbeRig& operator=(const ProbeRig&) = delete;

  cloud::CloudRegistry registry;
  std::unique_ptr<gcs::MultiCloudSession> session;
  std::unique_ptr<core::HyRDClient> client;
};

/// Replays the recorded op mix against SimProvider (`via_client` false) or
/// through the session's CloudClients (true), with each op re-issued under
/// its recorded VirtualScope so the fair queue sees the same arrivals.
PutGetMean replay_provider(const std::vector<OpRecord>& ops,
                           const Workload& w, std::uint64_t seed,
                           const common::Buffer& payload, bool via_client) {
  ProbeRig rig(seed, session_threads());
  for (const auto& p : rig.registry.all()) {
    for (const auto& c : containers_of(ops)) (void)p->create(c);
    if (w.kind == Kind::kFleet && w.fleet.congestion_enabled) {
      p->set_congestion(w.fleet.congestion);
    }
  }
  PutGetMean t;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    if (!is_data_op(op) || op.provider >= rig.registry.size()) continue;
    const bool is_put = op.kind == cloud::OpKind::kPut;
    const common::Buffer data =
        is_put ? payload.slice(0, std::min<std::uint64_t>(op.bytes, payload.size()))
               : common::Buffer();
    std::optional<common::VirtualScope> scope;
    if (op.scoped) scope.emplace(common::VirtualContext{op.arrival, op.tenant, op.weight});
    const auto t0 = Clock::now();
    if (via_client) {
      gcs::CloudClient& c = rig.session->client(op.provider);
      if (is_put) {
        (void)c.put(op.key, data);
      } else {
        (void)c.get(op.key);
      }
    } else {
      cloud::SimProvider& p = *rig.registry.all()[op.provider];
      if (is_put) {
        (void)p.put(op.key, data);
      } else {
        (void)p.get(op.key);
      }
    }
    t.add(is_put, us_since(t0));
  }
  return t;
}

/// Per-call wall time (us) of the dist schemes, the core client and the
/// threaded fan-out, on a fresh fleet. Fleets issue under a VirtualScope
/// (inline, as the event loop does); large-stripes issues threaded.
struct ClientProbes {
  double replica_write_us = 0, replica_read_us = 0;
  double stripe_write_us = 0, stripe_read_us = 0, stripe_degraded_read_us = 0;
  double core_put_us = 0, core_get_us = 0, core_degraded_get_us = 0;
  double batch_fanout_us = 0;
};

ClientProbes probe_clients(const Workload& w, std::uint64_t seed,
                           const common::Buffer& payload) {
  ProbeRig rig(seed, session_threads());
  core::HyRDClient& client = *rig.client;
  gcs::MultiCloudSession& session = *rig.session;
  const bool fleet = w.kind == Kind::kFleet;
  const std::size_t small_n = fleet ? 2000 : 200;
  const std::uint64_t small = fleet ? w.fleet.tenant.object_bytes : 4096;
  const std::size_t large_n = fleet ? 24 : 16;
  const std::uint64_t large = std::max<std::uint64_t>(object_bytes_of(w), kMiB);
  const auto scoped = [&](std::size_t i, auto&& fn) {
    if (!fleet) return fn();
    common::VirtualScope scope({static_cast<common::SimDuration>(i), i, 1.0});
    return fn();
  };
  const auto mean_of = [](auto&& fn, std::size_t n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto t0 = Clock::now();
      fn(i);
      sum += us_since(t0);
    }
    return pb::ratio(sum, static_cast<double>(n));
  };
  ClientProbes p;

  // dist: replication to HyRD's replica targets, RAID5 over its shard slots.
  const dist::ReplicationScheme rep("hyrd-data");
  const dist::ErasureScheme ec("hyrd-data", erasure::StripeGeometry{.k = 2, .m = 1});
  const auto& replicas = client.replica_targets();
  const auto& slots = client.shard_slots();
  std::vector<meta::FileMeta> small_meta(small_n), large_meta(large_n);
  p.replica_write_us = mean_of([&](std::size_t i) {
    small_meta[i] = scoped(i, [&] {
      return rep.write(session, "/probe/r" + std::to_string(i),
                       payload.slice(i % 64, small), replicas);
    }).meta;
  }, small_n);
  p.replica_read_us = mean_of([&](std::size_t i) {
    (void)scoped(i, [&] { return rep.read(session, small_meta[i]); });
  }, small_n);
  p.stripe_write_us = mean_of([&](std::size_t i) {
    large_meta[i] = scoped(i, [&] {
      return ec.write(session, "/probe/s" + std::to_string(i),
                      payload.slice(i % 64, large), slots);
    }).meta;
  }, large_n);
  p.stripe_read_us = mean_of([&](std::size_t i) {
    (void)scoped(i, [&] { return ec.read(session, large_meta[i]); });
  }, large_n);
  cloud::SimProvider* shard0 = session.client(slots.front()).provider();
  shard0->set_online(false);
  p.stripe_degraded_read_us = mean_of([&](std::size_t i) {
    (void)scoped(i, [&] { return ec.read(session, large_meta[i]); });
  }, large_n);
  shard0->set_online(true);

  // gcsapi: one threaded k+m fan-out of shard-sized puts.
  p.batch_fanout_us = mean_of([&](std::size_t i) {
    gcs::AsyncBatch batch(session);
    for (std::size_t s = 0; s < slots.size(); ++s) {
      batch.submit(gcs::CloudOp::put(
          slots[s], {"hyrd-data", "/probe/b" + std::to_string(s)},
          payload.slice(i % 64, large / 2)));
    }
    (void)batch.await_all();
  }, large_n);

  // core: StorageClient calls with no event loop, at the workload's size.
  const std::uint64_t core_bytes = fleet ? small : large;
  const std::size_t core_n = fleet ? small_n : large_n;
  // One file per directory, as tenants have: a put persists a one-record
  // metadata block.
  const auto core_path = [](std::size_t i) {
    return "/probe/c" + std::to_string(i) + "/o";
  };
  p.core_put_us = mean_of([&](std::size_t i) {
    (void)scoped(i, [&] {
      return client.put(core_path(i), payload.slice(i % 64, core_bytes));
    });
  }, core_n);
  p.core_get_us = mean_of([&](std::size_t i) {
    (void)scoped(i, [&] { return client.get(core_path(i)); });
  }, core_n);
  cloud::SimProvider* first =
      session.client(fleet ? replicas.front() : slots.front()).provider();
  first->set_online(false);
  p.core_degraded_get_us = mean_of([&](std::size_t i) {
    (void)scoped(i, [&] { return client.get(core_path(i)); });
  }, core_n);
  first->set_online(true);
  return p;
}

/// Runs `fn` over `bytes`-sized inputs for at least `min_s` seconds;
/// returns MB/s (decimal) of input processed.
template <typename Fn>
double throughput_mb_s(std::uint64_t bytes, double min_s, Fn&& fn) {
  std::uint64_t done = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    fn();
    done += bytes;
    elapsed = us_since(t0) / 1e6;
  } while (elapsed < min_s);
  return static_cast<double>(done) / elapsed / 1e6;
}

struct KernelProbes {
  double encode_mb_s = 0, decode_mb_s = 0, crc_mb_s = 0;
};

KernelProbes probe_kernels(const Workload& w, const common::Buffer& payload) {
  KernelProbes k;
  const std::uint64_t bytes = std::min<std::uint64_t>(object_bytes_of(w), payload.size());
  const common::Buffer object = payload.slice(0, bytes);
  const erasure::Striper striper(erasure::StripeGeometry{.k = 2, .m = 1});
  volatile std::uint32_t sink = 0;
  k.encode_mb_s = throughput_mb_s(bytes, 0.2, [&] {
    sink = sink + static_cast<std::uint32_t>(striper.encode(object).shard_size);
  });
  const erasure::StripeSet set = striper.encode(object);
  k.decode_mb_s = throughput_mb_s(bytes, 0.2, [&] {
    std::vector<std::optional<common::Buffer>> shards(set.shards.begin(),
                                                      set.shards.end());
    shards[0].reset();  // a lost data shard: decode must reconstruct
    auto out = striper.assemble(set.object_size, set.object_crc, std::move(shards));
    sink = sink + static_cast<std::uint32_t>(out.is_ok() ? out.value().size() : 0);
  });
  k.crc_mb_s = throughput_mb_s(bytes, 0.2, [&] { sink = sink + common::crc32c(object); });
  return k;
}

struct MetaProbes {
  double upsert_ns = 0, lookup_ns = 0, serialize_ns = 0;
};

/// MetadataStore at the workload's file count (at least 4096 files).
MetaProbes probe_metadata(std::size_t files) {
  files = std::max<std::size_t>(files, 4096);
  meta::MetadataStore store;
  MetaProbes p;
  std::vector<std::string> paths(files);
  for (std::size_t i = 0; i < files; ++i) paths[i] = tenant_path(i);
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < files; ++i) {
    meta::FileMeta m;
    m.path = paths[i];
    m.size = 4096;
    m.crc = static_cast<std::uint32_t>(i);
    m.locations = {{"WindowsAzure", paths[i] + ".r0"}, {"Aliyun", paths[i] + ".r1"}};
    store.upsert(std::move(m));
  }
  p.upsert_ns = us_since(t0) * 1000.0 / static_cast<double>(files);
  t0 = Clock::now();
  std::size_t found = 0;
  for (std::size_t i = 0; i < files; ++i) found += store.lookup(paths[i]) ? 1 : 0;
  p.lookup_ns = us_since(t0) * 1000.0 / static_cast<double>(files);
  t0 = Clock::now();
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < files; ++i) {
    bytes += store.serialize_directory("t" + std::to_string(i)).size();
  }
  p.serialize_ns = us_since(t0) * 1000.0 / static_cast<double>(files);
  if (found != files || bytes == 0) throw std::runtime_error("metadata probe lost records");
  return p;
}

/// schedule_at + step on an EventQueue holding `pending` events (ns/pair).
double probe_event_queue(std::size_t pending) {
  struct Noop final : sim::EventHandler {
    void on_event(sim::EventQueue&, common::SimDuration) override {}
  } noop;
  sim::EventQueue q;
  common::Xoshiro256 rng(7);
  const std::uint64_t horizon = 1000 * static_cast<std::uint64_t>(common::kSecond);
  for (std::size_t i = 0; i < std::max<std::size_t>(pending, 1); ++i) {
    q.schedule_at(static_cast<common::SimDuration>(rng() % horizon), &noop);
  }
  constexpr std::size_t kPairs = 200000;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kPairs; ++i) {
    q.schedule_at(q.now() + static_cast<common::SimDuration>(rng() % horizon), &noop);
    (void)q.step();
  }
  return us_since(t0) * 1000.0 / kPairs;
}

// --- Runs ------------------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  bool selftest = false;
  bool params = false;  // print the effective parameters and exit
};

struct RunOutput {
  MetricSet metrics;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::string detail;  // extra report fields (JSON members, no braces)
};

double median(std::vector<double> v) { return pb::percentile(std::move(v), 50.0); }

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// Builds the workload and appends the set-up time (s) to `times`.
Instance timed_build(const Workload& w, std::uint64_t seed,
                     std::vector<double>& times) {
  const auto t0 = Clock::now();
  Instance in = build(w, seed);
  times.push_back(us_since(t0) / 1e6);
  return in;
}

/// setup_s is the median of at least kMinSetups set-ups, repeated until
/// they add up to kSetupBudgetS (cheap set-ups are noisy one at a time).
constexpr std::size_t kMinSetups = 15;
constexpr std::size_t kMaxSetups = 301;
constexpr double kSetupBudgetS = 1.5;

void run_end_to_end(const Workload& w, const Args& a, RunOutput& out) {
  // Set-ups run first, in a process that has run nothing else, so every run
  // times them from the same allocator state. Timed after a pass, they
  // depended on how the pass left the heap: 10 or 15 ms per build, by run.
  std::vector<double> setup_times;
  double setup_total = 0;
  while (setup_times.size() < kMaxSetups &&
         (setup_times.size() < kMinSetups || setup_total < kSetupBudgetS)) {
    (void)timed_build(w, a.seed, setup_times);
    setup_total += setup_times.back();
  }

  // Each pass's samples are reduced to its percentiles and released before
  // the next pass, and every pass starts from a trimmed heap. Keeping them
  // made peak_rss_mb grow with the pass count (64 MB after one
  // fleet-churn-outage pass, 110 MB after four), so it depended on how fast
  // the host ran. Wall percentiles are medians of the per-pass values; the
  // virtual ones come from the first pass (every pass repeats it).
  std::vector<double> put_p50, get_p50, degraded_get_p50, op_p99;
  std::size_t n_put = 0, n_get = 0, n_degraded_get = 0, n_op = 0;
  double vlat_p50 = 0, vlat_p99 = 0, degraded_vlat_p50 = 0;
  std::size_t n_vlat = 0, n_degraded_vlat = 0, first_ops = 0;
  std::vector<PassResult> passes;
  double measured = 0;
  while (passes.empty() ||
         measured + passes.back().wall_s <= a.seconds) {
    malloc_trim(0);
    Instance in = build(w, a.seed);
    PassResult r = run_pass(in);
    measured += r.wall_s;
    if (passes.empty()) {
      check(in, r);
      vlat_p50 = pb::percentile(r.s.vlat_ms, 50);
      vlat_p99 = pb::percentile(r.s.vlat_ms, 99);
      degraded_vlat_p50 = pb::percentile(r.s.degraded_vlat_ms, 50);
      n_vlat = r.s.vlat_ms.size();
      n_degraded_vlat = r.s.degraded_vlat_ms.size();
      first_ops = r.s.op_us.size();
    } else if (r.fingerprint != passes.front().fingerprint) {
      r.error("pass " + std::to_string(passes.size() + 1) +
              " is not deterministic: " + r.fingerprint + " vs " +
              passes.front().fingerprint);
    }
    if (!pb::percentile_resolved(r.s.op_us.size(), 99.0)) {
      r.error("too few ops for p99: " + std::to_string(r.s.op_us.size()));
    }
    const auto take = [](std::vector<double>& to, std::size_t& n,
                         const std::vector<double>& from, double p) {
      if (from.empty()) return;
      to.push_back(pb::percentile(from, p));
      n += from.size();
    };
    take(put_p50, n_put, r.s.put_us, 50);
    take(get_p50, n_get, r.s.get_us, 50);
    take(degraded_get_p50, n_degraded_get, r.s.degraded_get_us, 50);
    take(op_p99, n_op, r.s.op_us, 99);
    r.s = Samples{};
    passes.push_back(std::move(r));
  }

  std::vector<double> slice_ops_s, slice_mb_s;
  double wall = 0;
  std::uint64_t ops = 0, bytes = 0;
  for (const PassResult& r : passes) {
    append(slice_ops_s, r.slices.ops_s);
    append(slice_mb_s, r.slices.mb_s);
    wall += r.wall_s;
    ops += r.counts.client_ops;
    bytes += r.user_bytes;
    out.attempted += r.counts.client_ops;
    out.failed += r.counts.failed_ops;
    for (const auto& e : r.errors) out.errors.push_back(e);
  }
  const PassResult& first = passes.front();  // virtual metrics: deterministic
  const pb::PassRatios ratios = pb::ratios_of(first.counts);
  if (ratios.failed_op_ratio > 0) out.errors.push_back("client ops failed");
  if (w.kind == Kind::kFleet) {
    const std::string eq = check_equivalence(w);
    if (!eq.empty()) out.errors.push_back(eq);
  }

  MetricSet& m = out.metrics;
  m.add("setup_s", median(setup_times), "s", setup_times.size());
  m.add("ops_per_s", median(slice_ops_s), "1/s", slice_ops_s.size());
  m.add("mb_per_s", median(slice_mb_s), "MB/s", slice_mb_s.size());
  m.add("put_wall_p50_us", median(put_p50), "us", n_put);
  m.add("get_wall_p50_us", median(get_p50), "us", n_get);
  m.add("degraded_get_wall_p50_us", median(degraded_get_p50), "us", n_degraded_get);
  m.add("op_wall_p99_us", median(op_p99), "us", n_op);
  m.add("vlat_p50_ms", vlat_p50, "ms", n_vlat);
  m.add("vlat_p99_ms", vlat_p99, "ms", n_vlat);
  m.add("degraded_vlat_p50_ms", degraded_vlat_p50, "ms", n_degraded_vlat);
  m.add("storage_overhead", ratios.storage_overhead, "ratio");
  m.add("cost_usd", first.cost_usd, "USD");

  out.detail = "\"passes\":" + std::to_string(passes.size()) +
               ",\"measured_s\":" + num(wall) +
               ",\"mean_ops_per_s\":" + num(pb::ratio(static_cast<double>(ops), wall)) +
               ",\"failed_op_ratio\":" + num(ratios.failed_op_ratio) +
               ",\"op_wall_highest_resolved_percentile\":" +
               num(pb::highest_resolved_percentile(first_ops)) +
               ",\"fingerprint\":" + quote(first.fingerprint) +
               (first.restore_detail.empty() ? "" : ",\"restore\":" + first.restore_detail);
}

void run_traced(const Workload& w, const Args& a, RunOutput& out) {
  // First pass: registry deltas, allocation counts and the output checks.
  // It also warms the heap, so the two timed passes below compare equally.
  obs::MetricsRegistry::global().reset();
  Instance in = build(w, a.seed);
  g_count_allocs.store(true);
  PassResult base = run_pass(in);
  g_count_allocs.store(false);
  const auto snap = obs::MetricsRegistry::global().snapshot();
  check(in, base);
  in = Instance{};
  out.attempted += base.counts.client_ops;
  out.failed += base.counts.failed_ops;
  for (const auto& e : base.errors) out.errors.push_back(e);

  // Untraced pass: the baseline of trace.overhead_pct.
  in = build(w, a.seed);
  const PassResult untraced = run_pass(in);
  in = Instance{};
  out.attempted += untraced.counts.client_ops;
  out.failed += untraced.counts.failed_ops;

  // Traced pass: the same workload with every provider op recorded.
  Instance traced_in = build(w, a.seed);
  OpRecorder recorder;
  recorder.install(traced_in.registry());
  PassResult traced = run_pass(traced_in);
  recorder.resolve_sizes(traced_in.registry());
  const std::vector<OpRecord> ops = recorder.take();
  traced_in = Instance{};
  out.attempted += traced.counts.client_ops;
  out.failed += traced.counts.failed_ops;
  if (traced.fingerprint != base.fingerprint) {
    out.errors.push_back("traced pass differs from the untraced one");
  }

  // Layer probes over the recorded op mix and at the workload's sizes.
  const common::Buffer payload = make_arena(9 * kMiB, a.seed);
  const PutGetMean store = replay_store(ops, payload);
  const cloud::CongestionParams congestion =
      w.kind == Kind::kFleet ? w.fleet.congestion : cloud::CongestionParams{};
  const double fq_admit_ns = replay_fair_queue(ops, congestion);
  const PutGetMean provider = replay_provider(ops, w, a.seed, payload, false);
  const PutGetMean gcs_client = replay_provider(ops, w, a.seed, payload, true);
  const ClientProbes cp = probe_clients(w, a.seed, payload);
  const KernelProbes kp = probe_kernels(w, payload);
  const std::size_t files = w.kind == Kind::kFleet ? w.fleet.tenants : 0;
  const MetaProbes mp = probe_metadata(files);
  const double event_ns = probe_event_queue(
      static_cast<std::size_t>(std::llround(base.mean_pending)));

  const pb::PassRatios ratios = pb::ratios_of(base.counts);
  const double client_ops = static_cast<double>(base.counts.client_ops);
  const double puts = static_cast<double>(base.provider_puts);
  const double gets = static_cast<double>(base.provider_gets);
  pb::LayerCost cost;
  // Core: the probed calls at the pass's mix, plus its timed restores.
  cost.core_us = pb::ratio(cp.core_put_us * static_cast<double>(base.client_puts) +
                               cp.core_get_us * static_cast<double>(base.client_gets) +
                               cp.core_degraded_get_us *
                                   static_cast<double>(base.client_degraded_gets) +
                               base.resync_ms * 1000.0,
                           client_ops);
  cost.gcs_us = pb::ratio(gcs_client.put() * puts + gcs_client.get() * gets, client_ops);
  cost.provider_us = pb::ratio(provider.put() * puts + provider.get() * gets, client_ops);
  cost.store_us =
      pb::ratio((store.put() * puts + store.get() * gets) / 1000.0, client_ops);
  cost.sim_us = event_ns * ratios.events_per_op / 1000.0;
  const double traced_wall_us = pb::ratio(traced.wall_s * 1e6, static_cast<double>(traced.counts.client_ops));
  const pb::SelfTimes self = pb::self_times(cost, traced_wall_us);
  const double base_ops_s = pb::ratio(
      static_cast<double>(untraced.counts.client_ops), untraced.wall_s);
  const double traced_ops_s =
      pb::ratio(static_cast<double>(traced.counts.client_ops), traced.wall_s);

  const auto sampled_p50 = [&](const char* name) {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0.0 : it->second.percentile(50.0);
  };

  MetricSet& m = out.metrics;
  m.add("sim.events_per_op", ratios.events_per_op, "count/op");
  m.add("sim.event_ns", event_ns, "ns");
  m.add("sim.us_per_op", self.sim_us, "us/op");
  m.add("cloud.fq_admit_ns", fq_admit_ns, "ns", ops.size());
  m.add("cloud.store_put_ns", store.put(), "ns", store.puts);
  m.add("cloud.store_get_ns", store.get(), "ns", store.gets);
  m.add("cloud.store_us_per_op", self.store_us, "us/op");
  m.add("cloud.provider_put_us", provider.put(), "us", provider.puts);
  m.add("cloud.provider_get_us", provider.get(), "us", provider.gets);
  m.add("cloud.provider_self_us_per_op", self.provider_self_us, "us/op");
  m.add("cloud.fq_queued_ratio", ratios.fq_queued_ratio, "ratio");
  m.add("cloud.fq_throttled", static_cast<double>(base.fq_throttled), "count");
  m.add("cloud.fq_wait_ms_per_provider_op", ratios.fq_wait_ms_per_provider_op, "ms/op");
  m.add("cloud.peak_queue_depth", static_cast<double>(base.peak_queue_depth), "count");
  m.add("cloud.bytes_written_per_user_byte", ratios.bytes_written_per_user_byte, "ratio");
  m.add("cloud.bytes_read_per_user_byte", ratios.bytes_read_per_user_byte, "ratio");
  m.add("gcsapi.client_put_us", gcs_client.put(), "us", gcs_client.puts);
  m.add("gcsapi.client_get_us", gcs_client.get(), "us", gcs_client.gets);
  m.add("gcsapi.self_us_per_op", self.gcs_self_us, "us/op");
  m.add("gcsapi.batch_fanout_us", cp.batch_fanout_us, "us");
  m.add("gcsapi.provider_ops_per_op", ratios.provider_ops_per_op, "count/op");
  m.add("gcsapi.attempts_per_op", ratios.attempts_per_op, "count/op");
  m.add("gcsapi.retries", static_cast<double>(base.gcs_retries), "count");
  m.add("dist.replica_write_us", cp.replica_write_us, "us");
  m.add("dist.replica_read_us", cp.replica_read_us, "us");
  m.add("dist.stripe_write_us", cp.stripe_write_us, "us");
  m.add("dist.stripe_read_us", cp.stripe_read_us, "us");
  m.add("dist.stripe_degraded_read_us", cp.stripe_degraded_read_us, "us");
  m.add("dist.encode_bytes_per_op", pb::ratio(static_cast<double>(base.encode_bytes), client_ops), "B/op");
  m.add("dist.crc_bytes_per_op", pb::ratio(static_cast<double>(base.crc_bytes), client_ops), "B/op");
  m.add("dist.hedges", static_cast<double>(base.hedges), "count");
  m.add("erasure.encode_mb_s", kp.encode_mb_s, "MB/s");
  m.add("erasure.decode_mb_s", kp.decode_mb_s, "MB/s");
  m.add("common.crc32c_mb_s", kp.crc_mb_s, "MB/s");
  m.add("common.bytes_copied_per_op", pb::ratio(static_cast<double>(base.bytes_copied), client_ops), "B/op");
  m.add("common.allocs_per_op", pb::ratio(static_cast<double>(base.allocs), client_ops), "count/op");
  m.add("common.alloc_bytes_per_op", pb::ratio(static_cast<double>(base.alloc_bytes), client_ops), "B/op");
  m.add("metadata.upsert_ns", mp.upsert_ns, "ns");
  m.add("metadata.lookup_ns", mp.lookup_ns, "ns");
  m.add("metadata.serialize_ns", mp.serialize_ns, "ns");
  m.add("metadata.upsert_ns_sampled", sampled_p50("meta.upsert.ns"), "ns");
  m.add("metadata.lookup_ns_sampled", sampled_p50("meta.lookup.ns"), "ns");
  m.add("metadata.update_log_records", static_cast<double>(base.log_records), "count");
  m.add("core.resync_ms", base.resync_ms, "ms");
  m.add("core.put_us", cp.core_put_us, "us");
  m.add("core.get_us", cp.core_get_us, "us");
  m.add("core.degraded_get_us", cp.core_degraded_get_us, "us");
  m.add("core.self_us_per_op", self.core_self_us, "us/op");
  m.add("trace.unattributed_share", self.unattributed_share, "ratio");
  m.add("trace.overhead_pct", (pb::ratio(base_ops_s, traced_ops_s) - 1.0) * 100.0, "%");

  out.detail = "\"recorded_provider_ops\":" + std::to_string(ops.size()) +
               ",\"untraced_ops_per_s\":" + num(base_ops_s) +
               ",\"traced_ops_per_s\":" + num(traced_ops_s) +
               ",\"traced_wall_us_per_op\":" + num(traced_wall_us) +
               ",\"attributed_us_per_op\":" + num(self.attributed_us);
}

// --- Self-test of the pure helpers ------------------------------------------------------------

int selftest() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++failures;
    }
  };
  const auto near = [](double a, double b) { return std::fabs(a - b) < 1e-9; };

  // Percentile rule: p99 needs ten samples beyond it, so 1000 samples.
  expect(pb::samples_beyond(1000, 99.0) == 10, "1000 samples leave 10 beyond p99");
  expect(pb::percentile_resolved(1000, 99.0), "p99 resolved at n=1000");
  expect(!pb::percentile_resolved(999, 99.0), "p99 unresolved at n=999");
  expect(pb::highest_resolved_percentile(1000) == 99.0, "highest at n=1000 is p99");
  expect(pb::highest_resolved_percentile(100000) == 99.99, "highest at n=1e5 is p99.99");
  expect(pb::highest_resolved_percentile(100) == 90.0, "highest at n=100 is p90");
  expect(pb::highest_resolved_percentile(20) == 50.0, "highest at n=20 is p50");
  expect(pb::highest_resolved_percentile(19) == 0.0, "nothing resolved at n=19");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(pb::percentile(v, 50) == 50 && pb::percentile(v, 99) == 99 &&
             pb::percentile(v, 100) == 100 && pb::percentile(v, 1) == 1,
         "nearest-rank percentiles of 1..100");
  expect(pb::percentile({}, 50) == 0, "empty percentile is 0");

  // Ratio bases.
  pb::PassCounts c;
  c.client_ops = 200;
  c.failed_ops = 2;
  c.live_user_bytes = 1000;
  c.provider_stored_bytes = 2100;
  c.user_bytes_written = 400;
  c.provider_bytes_written = 1000;
  c.user_bytes_read = 0;
  c.provider_bytes_read = 50;
  c.provider_ops = 500;
  c.gcs_ops = 400;
  c.gcs_attempts = 410;
  c.fq_admitted = 500;
  c.fq_queued = 125;
  c.fq_wait_ns = 3'000'000;
  c.events = 300;
  const pb::PassRatios r = pb::ratios_of(c);
  expect(near(r.failed_op_ratio, 0.01), "failed over attempted client ops");
  expect(near(r.storage_overhead, 2.1), "stored over live user bytes");
  expect(near(r.bytes_written_per_user_byte, 2.5), "written over user bytes written");
  expect(r.bytes_read_per_user_byte == 0, "empty base gives 0, not inf");
  expect(near(r.provider_ops_per_op, 2.5), "provider ops over client ops");
  expect(near(r.attempts_per_op, 1.025), "attempts over CloudClient calls");
  expect(near(r.fq_queued_ratio, 0.25), "queued over admitted");
  expect(near(r.fq_wait_ms_per_provider_op, 3.0 / 500), "wait ms over provider ops");
  expect(near(r.events_per_op, 1.5), "events over client ops");

  // Self time: each layer minus its child; the rest is unattributed.
  pb::LayerCost lc;
  lc.core_us = 10;
  lc.gcs_us = 6;
  lc.provider_us = 4;
  lc.store_us = 1;
  lc.sim_us = 2;
  const pb::SelfTimes s = pb::self_times(lc, 16);
  expect(near(s.core_self_us, 4) && near(s.gcs_self_us, 2) &&
             near(s.provider_self_us, 3) && near(s.store_us, 1),
         "self time subtracts the child layer");
  expect(near(s.attributed_us, 12), "self times sum to core + sim");
  expect(near(s.unattributed_share, 0.25), "unattributed share of traced wall");
  expect(pb::self_times(lc, 0).unattributed_share == 0, "zero wall gives share 0");

  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = std::stoi(value());
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--selftest") {
      a.selftest = true;
    } else if (k == "--params") {
      a.params = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!a.selftest && a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  Workload w;
  try {
    a = parse(argc, argv);
    if (a.selftest) return selftest();
    w = make_workload(a.workload, a.seed, a.smoke);
    if (a.params) {
      std::printf("%s\n", params_json(w).c_str());
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hyrd_perfbench: %s\n", e.what());
    return 2;
  }

  RunOutput out;
  if (a.trace == 1) {
    run_traced(w, a, out);
  } else {
    run_end_to_end(w, a, out);
  }
  for (const auto& e : out.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());

  std::string errors = "[";
  for (const auto& e : out.errors) errors += (errors.size() > 1 ? "," : "") + quote(e);
  errors += "]";
  std::printf("{\"report\":{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"smoke\":%s,"
              "\"params\":%s,%s,\"samples\":%s,\"errors\":%s}}\n",
              quote(w.name).c_str(), static_cast<unsigned long long>(a.seed), a.trace,
              a.smoke ? "true" : "false", params_json(w).c_str(), out.detail.c_str(),
              out.metrics.samples_json().c_str(), errors.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              out.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.metrics.values_json().c_str());
  return 0;
}
