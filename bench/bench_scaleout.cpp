// Scale-out study: clients-vs-throughput/tail-latency without threads.
//
// The legacy benches model concurrency with OS threads, which tops out at
// a few thousand clients per box. This bench drives the discrete-event
// engine (sim/) instead: each tenant is a heap-allocated state machine on
// a virtual-time event queue, so one process sweeps 10^3 -> 10^6
// concurrent tenants against the three Cloud-of-Clouds schemes. Providers
// run a bounded-capacity fair queue (cloud/congestion.h), so the sweep
// exposes the congestion knee: throughput saturates and p99 climbs once
// the fleet's offered load crosses provider capacity.
//
// Usage: bench_scaleout [--smoke] [--seed=N] [--max-tenants=N]
//                       [--scheme=NAME] [--stable-json] [--meta-ratio=R]
//                       [--campaign[=N]] [--json | --json=FILE]
//                       [--timeline=FILE] [--trace=FILE] [--cache]
//
//   --smoke        one small point per scheme (CI lane; seconds, not minutes)
//   --seed=N       the single seed every RNG stream derives from (default 42)
//   --max-tenants  cap the sweep (default 1e6)
//   --scheme=NAME  restrict to HyRD | DuraCloud | RACS
//   --stable-json  exclude wall-clock/RSS keys so two same-seed runs emit
//                  byte-identical JSON (the determinism contract)
//   --meta-ratio=R fraction of each tenant's post-creation ops that are
//                  client-side metadata stats (sharded MetadataStore
//                  lookups, no provider traffic); default 0 = off, which
//                  keeps the default runs' RNG streams untouched
//   --campaign[=N] run the E4 failure campaign (N tenants, default 2000)
//                  instead of the sweep: tight congestion, jittered
//                  retries, a correlated two-provider outage, a brownout,
//                  and a permanent provider loss, reporting goodput /
//                  retry amplification / recovery time per scheme
//   --timeline=F   (campaign) write the per-scheme flight-recorder
//                  time-series to F (default BENCH_timeline.json)
//   --trace=F      (campaign) record per-op spans across the runs and dump
//                  Chrome trace_event JSON to F (one pid per scheme)
//   --cache        enable the client write-back + read-through cache
//                  (src/cache/, default config) on every run; the report
//                  gains cache_* keys and the end-of-run drain accounts
//                  dirty-data loss
//
// Sweep checks: at every point >= 1e5 tenants, peak RSS stays under 2 GB
// and marginal memory under 4 KB/tenant; the congestion knee must appear
// (p99 at the largest point strictly above p99 at the smallest) per
// scheme. Each sweep point runs in a forked child, and its memory is read
// from outside (the child's peak RSS, via wait4), so no point inherits the
// heap an earlier one grew.
// Campaign checks: HyRD rides out the whole campaign with zero
// client-visible failures, retries are actually exercised, no scheme's run
// resurrects the destroyed provider, and — read off the timeline, not
// end-of-run totals — HyRD's goodput is back at >= 90% of its pre-outage
// baseline within the recovery budget after the outage lifts.
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/table.h"
#include "obs/trace.h"
#include "sim/scaleout.h"
#include "sim/timeline.h"

using namespace hyrd;

namespace {

struct Point {
  sim::ScaleoutReport report;
};

constexpr std::uint64_t kGiB = 1ull << 30;

/// The report fields a sweep point prints and gates on; a forked child
/// passes them back through shared memory.
struct PointFields {
  std::uint64_t ops_ok = 0;
  std::uint64_t ops_failed = 0;
  std::uint64_t provider_throttled = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t events_dispatched = 0;
  std::uint64_t meta_stats = 0;
  std::uint64_t cache_absorbed = 0;
  std::uint64_t cache_flush_batches = 0;
  std::uint64_t cache_read_hits = 0;
  std::uint64_t cache_dirty_lost_entries = 0;
  double throughput_ops_per_vs = 0;
  double mean_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  double wall_ms = 0;
};

template <typename To, typename From>
void copy_point_fields(To& to, const From& from) {
  to.ops_ok = from.ops_ok;
  to.ops_failed = from.ops_failed;
  to.provider_throttled = from.provider_throttled;
  to.peak_queue_depth = from.peak_queue_depth;
  to.events_dispatched = from.events_dispatched;
  to.meta_stats = from.meta_stats;
  to.cache_absorbed = from.cache_absorbed;
  to.cache_flush_batches = from.cache_flush_batches;
  to.cache_read_hits = from.cache_read_hits;
  to.cache_dirty_lost_entries = from.cache_dirty_lost_entries;
  to.throughput_ops_per_vs = from.throughput_ops_per_vs;
  to.mean_ms = from.mean_ms;
  to.p50_ms = from.p50_ms;
  to.p99_ms = from.p99_ms;
  to.p999_ms = from.p999_ms;
  to.wall_ms = from.wall_ms;
}

/// Runs one sweep point in a forked child. rss_bytes is the child's peak
/// RSS (ru_maxrss from wait4) and bytes_per_tenant that peak's growth over
/// the child's RSS at start. Measured in-process, every point after the
/// first would reuse the heap earlier points grew, and the memory gate
/// would pass vacuously. Returns false when the child did not finish.
bool run_point_isolated(const sim::ScaleoutConfig& config,
                        sim::ScaleoutReport* out) {
  struct Shared {
    PointFields fields;
    std::uint64_t rss_at_start = 0;
  };
  void* mem = mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return false;
  auto* shared = new (mem) Shared{};
  std::fflush(nullptr);  // the child must not re-flush buffered output
  const pid_t pid = fork();
  if (pid == 0) {
    shared->rss_at_start = sim::current_rss_bytes();
    copy_point_fields(shared->fields, sim::run_scaleout(config));
    _exit(0);  // no destructors, no stdio flush: the parent owns both
  }
  int status = 0;
  struct rusage usage {};
  const bool ok = pid > 0 && wait4(pid, &status, 0, &usage) == pid &&
                  WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (ok) {
    out->scheme = config.scheme;
    out->seed = config.seed;
    out->tenants = config.tenants;
    copy_point_fields(*out, shared->fields);
    out->rss_bytes = static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
    out->rss_delta_bytes = out->rss_bytes > shared->rss_at_start
                               ? out->rss_bytes - shared->rss_at_start
                               : 0;
    out->bytes_per_tenant =
        config.tenants ? static_cast<double>(out->rss_delta_bytes) /
                             static_cast<double>(config.tenants)
                       : 0.0;
  }
  munmap(mem, sizeof(Shared));
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 42;
  std::size_t max_tenants = 1'000'000;
  bool smoke = false;
  bool stable = false;
  bool campaign = false;
  bool cache_on = false;
  double meta_ratio = 0.0;
  std::size_t campaign_tenants = 2'000;
  std::string only_scheme;
  std::string timeline_file;
  std::string trace_file;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") smoke = true;
    if (a == "--stable-json") stable = true;
    if (a == "--cache") cache_on = true;
    if (a == "--campaign") campaign = true;
    if (a.rfind("--campaign=", 0) == 0) {
      campaign = true;
      campaign_tenants = std::strtoull(a.c_str() + 11, nullptr, 10);
    }
    if (a.rfind("--seed=", 0) == 0)
      seed = std::strtoull(a.c_str() + 7, nullptr, 10);
    if (a.rfind("--max-tenants=", 0) == 0)
      max_tenants = std::strtoull(a.c_str() + 14, nullptr, 10);
    if (a.rfind("--scheme=", 0) == 0) only_scheme = a.substr(9);
    if (a.rfind("--meta-ratio=", 0) == 0)
      meta_ratio = std::strtod(a.c_str() + 13, nullptr);
    if (a.rfind("--timeline=", 0) == 0) timeline_file = a.substr(11);
    if (a.rfind("--trace=", 0) == 0) trace_file = a.substr(8);
  }
  bench::JsonSink json(argc, argv);
  if (campaign && timeline_file.empty()) timeline_file = "BENCH_timeline.json";

  if (campaign) {
    std::vector<std::string> schemes = {"HyRD", "DuraCloud", "RACS"};
    if (!only_scheme.empty()) schemes = {only_scheme};
    if (!json.quiet()) {
      std::printf(
          "=== E4 failure campaign: %zu tenants/scheme, correlated outage + "
          "brownout + permanent loss (seed %llu) ===\n\n",
          campaign_tenants, static_cast<unsigned long long>(seed));
    }

    bool hyrd_clean = true;
    bool no_resurrection = true;
    bool retried = false;
    bool recovery_ok = true;

    // Timeline recovery gate, read off the sampled series (not end-of-run
    // totals): baseline goodput = the windows between ramp end (10 vs) and
    // outage start (12 vs); the fleet must be back at >= 90% of it within
    // the budget after the outage lifts (20 vs). Gated on HyRD — the
    // schemes without a reachable replica set may legitimately limp.
    constexpr double kBaselineFromVs = 10.0;
    constexpr double kBaselineToVs = 12.0;
    constexpr double kOutageEndVs = 20.0;
    constexpr double kRecoveryFraction = 0.9;
    constexpr double kRecoveryBudgetVs = 10.0;

    obs::TraceRecorder recorder;
    std::string timelines;  // "schemes" object body of the timeline file
    common::Table t({"Scheme", "Ops ok", "Ops failed", "Retries", "Amp",
                     "Goodput", "Recovery vs", "Events", "Wall s"});
    for (std::size_t si = 0; si < schemes.size(); ++si) {
      const std::string& scheme = schemes[si];
      sim::ScaleoutConfig config =
          sim::standard_campaign_config(scheme, campaign_tenants, seed);
      config.tenant.stat_ratio = meta_ratio;
      config.cache.enabled = cache_on;
      if (!trace_file.empty()) {
        recorder.set_default_pid(static_cast<std::uint32_t>(si + 1));
        config.trace = &recorder;
      }
      const sim::ScaleoutReport r = sim::run_scaleout(config);

      const double recovery_vs = sim::timeline_recovery_seconds(
          r.timeline, kBaselineFromVs, kBaselineToVs, kOutageEndVs,
          kRecoveryFraction);
      if (scheme == "HyRD" &&
          (recovery_vs < 0 || recovery_vs > kRecoveryBudgetVs)) {
        recovery_ok = false;
      }
      if (!timelines.empty()) timelines += ",";
      timelines += "\"" + scheme + "\":" +
                   sim::timeline_to_json(r.timeline, r.timeline_providers,
                                         r.timeline_interval_vs);

      const std::string k = "campaign/" + scheme + "/";
      json.add(k + "timeline_recovery_vs", recovery_vs);
      json.add(k + "timeline_rows", static_cast<double>(r.timeline.size()));
      json.add(k + "ops_ok", static_cast<double>(r.ops_ok));
      json.add(k + "ops_failed", static_cast<double>(r.ops_failed));
      json.add(k + "retries", static_cast<double>(r.retries));
      json.add(k + "retry_amplification", r.retry_amplification);
      json.add(k + "goodput_ops_per_vs", r.goodput_ops_per_vs);
      json.add(k + "recovery_virtual_seconds", r.recovery_virtual_seconds);
      json.add(k + "failure_events", static_cast<double>(r.failure_events));
      json.add(k + "provider_resurrected",
               static_cast<double>(r.provider_resurrected));
      json.add(k + "throttled", static_cast<double>(r.provider_throttled));
      if (cache_on) {
        json.add(k + "cache_absorbed", static_cast<double>(r.cache_absorbed));
        json.add(k + "cache_flush_batches",
                 static_cast<double>(r.cache_flush_batches));
        json.add(k + "cache_dirty_hits",
                 static_cast<double>(r.cache_dirty_hits));
        json.add(k + "cache_read_hits",
                 static_cast<double>(r.cache_read_hits));
        json.add(k + "cache_dirty_lost_entries",
                 static_cast<double>(r.cache_dirty_lost_entries));
        json.add(k + "cache_dirty_lost_bytes",
                 static_cast<double>(r.cache_dirty_lost_bytes));
      }
      if (!stable) json.add(k + "wall_ms", r.wall_ms);

      if (scheme == "HyRD" && r.ops_failed > 0) hyrd_clean = false;
      if (r.provider_resurrected != 0) no_resurrection = false;
      if (r.retries > 0) retried = true;

      t.add_row({scheme, std::to_string(r.ops_ok),
                 std::to_string(r.ops_failed), std::to_string(r.retries),
                 common::Table::num(r.retry_amplification, 3),
                 common::Table::num(r.goodput_ops_per_vs, 1),
                 common::Table::num(r.recovery_virtual_seconds, 2),
                 std::to_string(r.failure_events),
                 common::Table::num(r.wall_ms / 1000.0, 1)});
    }
    if (!json.quiet()) {
      t.print();
      std::printf("\n");
    }

    json.add("check/campaign_hyrd_zero_failures", hyrd_clean ? 1.0 : 0.0);
    json.add("check/campaign_no_resurrection", no_resurrection ? 1.0 : 0.0);
    json.add("check/campaign_retries_exercised", retried ? 1.0 : 0.0);
    json.add("check/campaign_timeline_recovery", recovery_ok ? 1.0 : 0.0);
    json.flush("bench_scaleout");

    if (!timeline_file.empty()) {
      std::FILE* f = std::fopen(timeline_file.c_str(), "w");
      if (f != nullptr) {
        char head[160];
        std::snprintf(head, sizeof(head), "{\"seed\":%llu,\"tenants\":%zu,",
                      static_cast<unsigned long long>(seed), campaign_tenants);
        std::fputs(head, f);
        std::fputs("\"schemes\":{", f);
        std::fputs(timelines.c_str(), f);
        std::fputs("}}\n", f);
        std::fclose(f);
        if (!json.quiet()) {
          std::printf("Timeline written to %s\n", timeline_file.c_str());
        }
      }
    }
    if (!trace_file.empty()) {
      std::FILE* f = std::fopen(trace_file.c_str(), "w");
      if (f != nullptr) {
        const std::string chrome = recorder.to_chrome_json();
        std::fwrite(chrome.data(), 1, chrome.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        if (!json.quiet()) {
          std::printf("Trace (%zu spans) written to %s\n", recorder.size(),
                      trace_file.c_str());
        }
      }
    }

    if (!json.quiet()) {
      std::printf("Checks:\n");
      std::printf("  HyRD zero client-visible failures: %s\n",
                  hyrd_clean ? "yes" : "NO (regression)");
      std::printf("  destroyed provider stayed destroyed: %s\n",
                  no_resurrection ? "yes" : "NO (regression)");
      std::printf("  retries exercised: %s\n", retried ? "yes" : "NO");
      std::printf("  goodput recovered to >= %.0f%% of pre-outage within "
                  "%.0f vs of outage end: %s\n",
                  kRecoveryFraction * 100.0, kRecoveryBudgetVs,
                  recovery_ok ? "yes" : "NO (regression)");
    }
    return (hyrd_clean && no_resurrection && retried && recovery_ok) ? 0 : 1;
  }

  std::vector<std::size_t> sweep;
  if (smoke) {
    sweep = {1'000};
  } else {
    for (std::size_t n : {std::size_t{1'000}, std::size_t{10'000},
                          std::size_t{100'000}, std::size_t{1'000'000}}) {
      if (n <= max_tenants) sweep.push_back(n);
    }
  }
  std::vector<std::string> schemes = {"HyRD", "DuraCloud", "RACS"};
  if (!only_scheme.empty()) schemes = {only_scheme};

  // RACS erasure-codes every object, so each of its stored objects is a
  // fresh 1.33x coded block that cannot ref-share the tenant arena the
  // way replicated slices do: at 10^6 tenants that is ~5.7 KB/tenant of
  // simulated *dataset* (measured 6.2 GB RSS) and a collapsed event loop
  // (every op fans out to all four providers — the paper's §II-B
  // critique). Its sweep is capped at 10^5, where it fits the harness
  // budget; pass --scheme=RACS --max-tenants=1000000 to run it anyway.
  const auto scheme_cap = [&](const std::string& s) {
    return s == "RACS" && only_scheme.empty() ? std::size_t{100'000}
                                              : max_tenants;
  };

  if (!json.quiet()) {
    std::printf("=== Scale-out sweep: %zu..%zu tenants/scheme on the "
                "discrete-event engine (seed %llu) ===\n\n",
                sweep.front(), sweep.back(),
                static_cast<unsigned long long>(seed));
  }

  bool memory_ok = true;
  bool knee_ok = true;
  for (const auto& scheme : schemes) {
    std::vector<Point> points;
    for (std::size_t n : sweep) {
      if (n > scheme_cap(scheme)) continue;
      sim::ScaleoutConfig config;
      config.scheme = scheme;
      config.tenants = n;
      config.seed = seed;
      config.tenant.stat_ratio = meta_ratio;
      config.cache.enabled = cache_on;
      Point pt;
      if (!run_point_isolated(config, &pt.report)) {
        std::fprintf(stderr, "bench_scaleout: %s at %zu tenants did not finish\n",
                     scheme.c_str(), n);
        return 1;
      }
      const auto& r = pt.report;

      const std::string k = scheme + "/" + std::to_string(n) + "/";
      json.add(k + "ops_ok", static_cast<double>(r.ops_ok));
      json.add(k + "ops_failed", static_cast<double>(r.ops_failed));
      json.add(k + "throughput_ops_per_vs", r.throughput_ops_per_vs);
      json.add(k + "mean_ms", r.mean_ms);
      json.add(k + "p50_ms", r.p50_ms);
      json.add(k + "p99_ms", r.p99_ms);
      json.add(k + "p999_ms", r.p999_ms);
      json.add(k + "throttled", static_cast<double>(r.provider_throttled));
      json.add(k + "peak_queue_depth",
               static_cast<double>(r.peak_queue_depth));
      json.add(k + "events", static_cast<double>(r.events_dispatched));
      if (cache_on) {
        json.add(k + "cache_absorbed", static_cast<double>(r.cache_absorbed));
        json.add(k + "cache_flush_batches",
                 static_cast<double>(r.cache_flush_batches));
        json.add(k + "cache_read_hits",
                 static_cast<double>(r.cache_read_hits));
        json.add(k + "cache_dirty_lost_entries",
                 static_cast<double>(r.cache_dirty_lost_entries));
      }
      if (meta_ratio > 0) {
        json.add(k + "meta_stats", static_cast<double>(r.meta_stats));
      }
      if (!stable) {
        json.add(k + "wall_ms", r.wall_ms);
        json.add(k + "rss_mb",
                 static_cast<double>(r.rss_bytes) / (1024.0 * 1024.0));
        json.add(k + "bytes_per_tenant", r.bytes_per_tenant);
      }

      if (n >= 100'000) {
        if (r.rss_bytes >= 2 * kGiB) memory_ok = false;
        if (r.bytes_per_tenant > 4096.0) memory_ok = false;
      }
      points.push_back(std::move(pt));
    }

    if (!json.quiet()) {
      std::printf("%s:\n", scheme.c_str());
      common::Table t({"Tenants", "Ops ok", "Thru (ops/vs)", "p50 ms",
                       "p99 ms", "Throttled", "Wall s", "RSS MB", "B/tenant"});
      for (const auto& pt : points) {
        const auto& r = pt.report;
        t.add_row({std::to_string(r.tenants), std::to_string(r.ops_ok),
                   common::Table::num(r.throughput_ops_per_vs, 1),
                   common::Table::num(r.p50_ms, 1),
                   common::Table::num(r.p99_ms, 1),
                   std::to_string(r.provider_throttled),
                   common::Table::num(r.wall_ms / 1000.0, 1),
                   common::Table::num(
                       static_cast<double>(r.rss_bytes) / (1024.0 * 1024.0),
                       0),
                   common::Table::num(r.bytes_per_tenant, 0)});
      }
      t.print();
      std::printf("\n");
    }

    // The knee: tail latency must visibly climb across the sweep once the
    // fleet outgrows provider capacity. Only meaningful on the full sweep.
    if (sweep.size() > 1 &&
        points.back().report.p99_ms <= points.front().report.p99_ms) {
      knee_ok = false;
    }
  }

  json.add("check/memory_budget", memory_ok ? 1.0 : 0.0);
  json.add("check/congestion_knee", (sweep.size() > 1 ? knee_ok : true) ? 1.0 : 0.0);
  json.flush("bench_scaleout");

  if (!json.quiet()) {
    std::printf("Checks:\n");
    std::printf("  RSS < 2 GB and <= 4 KB/tenant at >= 1e5 tenants: %s\n",
                memory_ok ? "yes" : "NO (regression)");
    if (sweep.size() > 1) {
      std::printf("  congestion knee visible (p99 climbs with scale): %s\n",
                  knee_ok ? "yes" : "NO (regression)");
    }
  }
  return (memory_ok && knee_ok) ? 0 : 1;
}
