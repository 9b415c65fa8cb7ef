// Metadata-plane microbench: the sharded, hash-routed MetadataStore vs
// the retained legacy single-mutex std::map store (DESIGN.md §14), plus
// the indexed UpdateLog vs a scan-and-compact baseline.
//
// Part 1 sweeps threads x shard counts over a mixed lookup/upsert workload
// on a fixed path population. Every (store, threads) cell reports Mops/s;
// the headline check is sharded-16 at 8 threads >= 4x the legacy store.
//
// Part 2 builds a 10^5-record update log across 6 providers and times
// pending_for per provider on the indexed log against a faithful
// reimplementation of the pre-index algorithm (full-log scan + per-call
// compaction map); the check is >= 10x.
//
// Usage: bench_metadata [--quick] [--json | --json=FILE]
//
//   --quick   smaller op counts (CI smoke; seconds, not tens of seconds)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "metadata/legacy_store.h"
#include "metadata/metadata_store.h"
#include "metadata/update_log.h"

using namespace hyrd;

namespace {

// Big enough that the legacy nested std::map is a real tree (depth ~10 of
// pointer chases + string compares per level), which is what client
// metadata at cloud-of-clouds scale looks like — not a cache-resident toy.
constexpr std::size_t kDirs = 16;
constexpr std::size_t kFilesPerDir = 65536;

std::string path_of(std::size_t dir, std::size_t file) {
  return "d" + std::to_string(dir) + "/f" + std::to_string(file);
}

/// All paths, precomputed: the workload indexes into this so per-op cost
/// is the store, not std::to_string.
const std::vector<std::string>& path_table() {
  static const std::vector<std::string> table = [] {
    std::vector<std::string> t;
    t.reserve(kDirs * kFilesPerDir);
    for (std::size_t d = 0; d < kDirs; ++d) {
      for (std::size_t f = 0; f < kFilesPerDir; ++f) {
        t.push_back(path_of(d, f));
      }
    }
    return t;
  }();
  return table;
}

meta::FileMeta meta_of(std::string path) {
  meta::FileMeta m;
  m.path = std::move(path);
  m.size = 4096;
  m.version = 1;
  return m;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Mixed 75% lookup / 25% upsert workload over the fixed population;
/// returns Mops/s aggregated across threads. Works for both store types
/// (same upsert/lookup surface).
template <typename Store>
double run_mixed_once(Store& store, std::size_t threads,
                      std::size_t ops_per_thread, std::uint64_t seed) {
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  std::atomic<std::uint64_t> sink{0};  // defeat dead-code elimination
  const std::vector<std::string>& paths = path_table();

  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      common::Xoshiro256 rng(seed ^ (0x9e3779b97f4a7c15ull * (t + 1)));
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      std::uint64_t found = 0;
      for (std::size_t i = 0; i < ops_per_thread; ++i) {
        const std::string& path = paths[rng() % paths.size()];
        if (rng.chance(0.25)) {
          store.upsert(meta_of(path));
        } else {
          found += store.lookup(path).has_value() ? 1 : 0;
        }
      }
      sink.fetch_add(found);
    });
  }
  while (ready.load() != threads) {
  }
  const double start = now_s();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  const double elapsed = now_s() - start;
  return static_cast<double>(threads * ops_per_thread) / elapsed / 1e6;
}

/// Best of three repetitions: populating a store dominates a cell's cost,
/// the measured phase is cheap — so repeat it and keep the least-disturbed
/// run (single-core VMs get multi-millisecond scheduler artifacts).
template <typename Store>
double run_mixed(Store& store, std::size_t threads,
                 std::size_t ops_per_thread, std::uint64_t seed) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    best = std::max(best,
                    run_mixed_once(store, threads, ops_per_thread, seed + rep));
  }
  return best;
}

/// The pre-index UpdateLog algorithm, verbatim in shape: one flat record
/// vector; pending_for scans the whole log and compacts into a map keyed
/// by object name. The baseline Part 2 measures against.
struct ScanLog {
  std::vector<meta::LogRecord> records;

  std::vector<meta::LogRecord> pending_for(const std::string& provider) const {
    std::unordered_map<std::string, std::size_t> latest;
    std::vector<meta::LogRecord> out;
    for (const auto& rec : records) {
      if (rec.provider != provider) continue;
      auto [it, fresh] = latest.try_emplace(rec.object_name, out.size());
      if (fresh) {
        out.push_back(rec);
      } else {
        out[it->second] = rec;
      }
    }
    return out;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  bench::JsonSink json(argc, argv);

  const std::uint64_t seed = 42;
  const std::size_t ops_per_thread = quick ? 50'000 : 400'000;
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  const std::vector<std::size_t> shard_counts = {1, 4, 16, 64};

  if (!json.quiet()) {
    std::printf("=== Metadata plane: sharded store vs legacy single-mutex "
                "map (%zu dirs x %zu files, %zu ops/thread) ===\n\n",
                kDirs, kFilesPerDir, ops_per_thread);
  }

  // --- Part 1: threads x shards sweep ------------------------------------
  // Fresh stores per cell so table growth/caching never leaks across cells.
  std::vector<std::vector<double>> sharded_mops(shard_counts.size());
  std::vector<double> legacy_mops;
  for (const std::size_t threads : thread_counts) {
    {
      meta::LegacyMetadataStore store;
      for (const auto& p : path_table()) store.upsert(meta_of(p));
      legacy_mops.push_back(run_mixed(store, threads, ops_per_thread, seed));
      json.add("legacy/t" + std::to_string(threads) + "/mops",
               legacy_mops.back());
    }
    for (std::size_t si = 0; si < shard_counts.size(); ++si) {
      meta::MetadataStore store(shard_counts[si]);
      for (const auto& p : path_table()) store.upsert(meta_of(p));
      sharded_mops[si].push_back(
          run_mixed(store, threads, ops_per_thread, seed));
      json.add("sharded" + std::to_string(shard_counts[si]) + "/t" +
                   std::to_string(threads) + "/mops",
               sharded_mops[si].back());
    }
  }

  if (!json.quiet()) {
    common::Table t({"Threads", "Legacy Mops", "Shard1", "Shard4", "Shard16",
                     "Shard64", "16/legacy"});
    for (std::size_t ti = 0; ti < thread_counts.size(); ++ti) {
      t.add_row({std::to_string(thread_counts[ti]),
                 common::Table::num(legacy_mops[ti], 2),
                 common::Table::num(sharded_mops[0][ti], 2),
                 common::Table::num(sharded_mops[1][ti], 2),
                 common::Table::num(sharded_mops[2][ti], 2),
                 common::Table::num(sharded_mops[3][ti], 2),
                 common::Table::num(sharded_mops[2][ti] / legacy_mops[ti], 2)});
    }
    t.print();
    std::printf("\n");
  }

  const double speedup_8t = sharded_mops[2].back() / legacy_mops.back();
  json.add("speedup/sharded16_vs_legacy_t8", speedup_8t);

  // --- Part 2: indexed UpdateLog vs scan-and-compact ----------------------
  const std::size_t log_records = quick ? 20'000 : 100'000;
  const std::vector<std::string> providers = {"AmazonS3",  "WindowsAzure",
                                              "Aliyun",    "Rackspace",
                                              "GoogleGCS", "BackblazeB2"};
  // A long outage keeps re-logging a hot working set: most appends
  // supersede an earlier record for the same object, so the compacted
  // pending set is far smaller than the raw log — exactly the shape the
  // per-provider index + watermark compaction exist for. The scan baseline
  // still walks every raw record per query.
  const std::size_t hot_objects = log_records / 50;
  meta::UpdateLog indexed;
  ScanLog scan;
  common::Xoshiro256 rng(seed);
  for (std::size_t i = 0; i < log_records; ++i) {
    const std::string& provider = providers[i % providers.size()];
    const std::size_t object = rng() % hot_objects;
    meta::LogRecord rec;
    rec.seq = i + 1;
    rec.provider = provider;
    rec.container = "hyrd-data";
    rec.path = "d" + std::to_string(object % kDirs) + "/o" +
               std::to_string(object);
    rec.object_name = "o" + std::to_string(object);
    rec.action = meta::LogAction::kPut;
    scan.records.push_back(rec);
    indexed.append(rec.provider, rec.container, rec.path, rec.object_name,
                   rec.action);
  }

  const int query_rounds = quick ? 3 : 10;
  std::size_t pending_total = 0;
  const double t_indexed_start = now_s();
  for (int round = 0; round < query_rounds; ++round) {
    for (const auto& p : providers) {
      pending_total += indexed.pending_for(p).size();
    }
  }
  const double t_indexed = now_s() - t_indexed_start;

  std::size_t pending_total_scan = 0;
  const double t_scan_start = now_s();
  for (int round = 0; round < query_rounds; ++round) {
    for (const auto& p : providers) {
      pending_total_scan += scan.pending_for(p).size();
    }
  }
  const double t_scan = now_s() - t_scan_start;

  const double log_speedup = t_scan / t_indexed;
  json.add("updatelog/records", static_cast<double>(log_records));
  json.add("updatelog/pending_ms_indexed", t_indexed * 1000.0);
  json.add("updatelog/pending_ms_scan", t_scan * 1000.0);
  json.add("updatelog/speedup", log_speedup);

  if (!json.quiet()) {
    std::printf("UpdateLog pending_for, %zu records x %d rounds x %zu "
                "providers:\n  indexed %.2f ms, scan-and-compact %.2f ms "
                "(%.1fx)\n\n",
                log_records, query_rounds, providers.size(),
                t_indexed * 1000.0, t_scan * 1000.0, log_speedup);
  }

  // Cross-check: both logs agree on the compacted pending counts.
  const bool agree = pending_total == pending_total_scan;

  // Thresholds are asserted here (committed-artifact evidence) but kept
  // advisory in CI runners, whose 2-core VMs make ratios noisy; the hard
  // functional gates live in the MetadataShard/UpdateLogIndex test suites.
  json.add("check/pending_counts_agree", agree ? 1.0 : 0.0);
  json.add("check/sharded16_4x_at_8_threads", speedup_8t >= 4.0 ? 1.0 : 0.0);
  json.add("check/updatelog_10x", log_speedup >= 10.0 ? 1.0 : 0.0);
  json.flush("bench_metadata");

  if (!json.quiet()) {
    std::printf("Checks:\n");
    std::printf("  pending counts agree (indexed == scan): %s\n",
                agree ? "yes" : "NO (bug)");
    std::printf("  sharded-16 >= 4x legacy at 8 threads: %s (%.1fx)\n",
                speedup_8t >= 4.0 ? "yes" : "NO", speedup_8t);
    std::printf("  indexed pending_for >= 10x scan: %s (%.1fx)\n",
                log_speedup >= 10.0 ? "yes" : "NO", log_speedup);
  }
  return agree ? 0 : 1;
}
