// Microbenchmarks for the client stack: wall-clock cost of driving the
// simulator (not virtual latency) — how many simulated cloud operations
// per second the harness sustains, per scheme and op type.
//
// Two modes:
//  * default: the google-benchmark suite below.
//  * --json[=FILE]: the "databus" suite — drives the HyRD 4 MB write+read
//    round trip and the replicated-GET path while diffing the copy meter
//    (common/copy_meter.h), and emits bytes-memcpy'd-per-op plus ops/sec
//    as one flat JSON object (bench_util JsonSink). CI publishes this as
//    BENCH_databus.json; EXPERIMENTS.md E2 tracks the trajectory.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_util.h"
#include "common/copy_meter.h"

using namespace hyrd;

namespace {

template <typename MakeClient>
void run_put_get(benchmark::State& state, MakeClient make_client,
                 std::size_t size) {
  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, 555);
  gcs::MultiCloudSession session(registry);
  auto client = make_client(session);
  const auto data = common::patterned(size, 1);
  int i = 0;
  for (auto _ : state) {
    const std::string path =
        std::string("/b/f").append(std::to_string(i++ % 64));
    auto w = client->put(path, data);
    auto r = client->get(path);
    benchmark::DoNotOptimize(r.data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * size));
}

void BM_HyRDSmallPutGet(benchmark::State& state) {
  run_put_get(state,
              [](gcs::MultiCloudSession& s) {
                return std::make_unique<core::HyRDClient>(s);
              },
              4096);
}
BENCHMARK(BM_HyRDSmallPutGet);

void BM_HyRDLargePutGet(benchmark::State& state) {
  run_put_get(state,
              [](gcs::MultiCloudSession& s) {
                return std::make_unique<core::HyRDClient>(s);
              },
              4u << 20);
}
BENCHMARK(BM_HyRDLargePutGet);

void BM_RacsSmallPutGet(benchmark::State& state) {
  run_put_get(state,
              [](gcs::MultiCloudSession& s) {
                return std::make_unique<core::RACSClient>(s);
              },
              4096);
}
BENCHMARK(BM_RacsSmallPutGet);

void BM_RacsLargePutGet(benchmark::State& state) {
  run_put_get(state,
              [](gcs::MultiCloudSession& s) {
                return std::make_unique<core::RACSClient>(s);
              },
              4u << 20);
}
BENCHMARK(BM_RacsLargePutGet);

void BM_DuraCloudPutGet(benchmark::State& state) {
  run_put_get(state,
              [](gcs::MultiCloudSession& s) {
                return std::make_unique<core::DuraCloudClient>(s);
              },
              256 * 1024);
}
BENCHMARK(BM_DuraCloudPutGet);

void BM_ProviderRawPut(benchmark::State& state) {
  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, 556);
  auto* provider = registry.find("Aliyun");
  provider->create("c");
  const auto data = common::patterned(static_cast<std::size_t>(state.range(0)), 2);
  int i = 0;
  for (auto _ : state) {
    auto r = provider->put(
        {"c", std::string("k").append(std::to_string(i++ % 16))}, data);
    benchmark::DoNotOptimize(r.latency);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ProviderRawPut)->Range(4 << 10, 4 << 20);

// ---------------------------------------------------------------------------
// Databus suite (--json mode): copy-meter accounting for the hot paths the
// zero-copy plane targets. All figures are per logical client op.

using WallClock = std::chrono::steady_clock;

double seconds_since(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

void die(const char* what) {
  std::fprintf(stderr, "databus bench: %s failed\n", what);
  std::exit(1);
}

/// 4 MB HyRD round trip: put a fresh 4 MB object (striped path), read it
/// back. Payloads differ per iteration so the dedup index never collapses
/// the puts.
void databus_hyrd_roundtrip(hyrd::bench::JsonSink& sink) {
  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, 777);
  gcs::MultiCloudSession session(registry);
  core::HyRDClient client(session);

  constexpr std::size_t kSize = 4u << 20;
  constexpr int kIters = 24;
  std::vector<common::Bytes> payloads;
  payloads.reserve(kIters);
  for (int i = 0; i < kIters; ++i) {
    payloads.push_back(common::patterned(kSize, 1000 + i));
  }
  if (!client.put("/warm/f", payloads[0]).status.is_ok()) die("warm put");
  if (!client.get("/warm/f").status.is_ok()) die("warm get");

  common::reset_copied_bytes();
  const auto t0 = WallClock::now();
  for (int i = 0; i < kIters; ++i) {
    const std::string path =
        std::string("/databus/f").append(std::to_string(i));
    if (!client.put(path, payloads[i]).status.is_ok()) die("put");
    auto r = client.get(path);
    if (!r.status.is_ok()) die("get");
    if (r.data.size() != kSize) die("get size");
  }
  const double secs = seconds_since(t0);
  const double copied =
      static_cast<double>(common::copied_bytes()) / kIters;
  sink.add("hyrd_4mb_roundtrip/bytes_memcpy_per_op", copied);
  sink.add("hyrd_4mb_roundtrip/logical_bytes_per_op",
           static_cast<double>(2 * kSize));
  sink.add("hyrd_4mb_roundtrip/ops_per_sec", kIters / secs);
  sink.add("hyrd_4mb_roundtrip/mb_per_sec",
           (kIters * 2.0 * kSize) / secs / (1 << 20));
}

/// Replicated-GET path: DuraCloud (pure replication) serves a 256 KiB
/// object, serially and then from 8 threads (same keys — the contended
/// read-mostly shape the sharded store targets).
void databus_replicated_get(hyrd::bench::JsonSink& sink) {
  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, 778);
  gcs::MultiCloudSession session(registry);
  core::DuraCloudClient client(session);

  constexpr std::size_t kSize = 256u << 10;
  constexpr int kObjects = 8;
  for (int i = 0; i < kObjects; ++i) {
    const auto data = common::patterned(kSize, 2000 + i);
    const std::string path = std::string("/rep/f").append(std::to_string(i));
    if (!client.put(path, data).status.is_ok()) {
      die("replicated put");
    }
  }
  if (!client.get("/rep/f0").status.is_ok()) die("warm replicated get");

  constexpr int kSerial = 192;
  common::reset_copied_bytes();
  auto t0 = WallClock::now();
  for (int i = 0; i < kSerial; ++i) {
    auto r = client.get(
        std::string("/rep/f").append(std::to_string(i % kObjects)));
    if (!r.status.is_ok() || r.data.size() != kSize) die("replicated get");
  }
  double secs = seconds_since(t0);
  sink.add("replicated_get_256k/bytes_memcpy_per_op",
           static_cast<double>(common::copied_bytes()) / kSerial);
  sink.add("replicated_get_256k/ops_per_sec", kSerial / secs);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 64;
  t0 = WallClock::now();
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          auto r = client.get(std::string("/rep/f").append(
              std::to_string((t + i) % kObjects)));
          if (!r.status.is_ok()) die("concurrent replicated get");
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  secs = seconds_since(t0);
  sink.add("replicated_get_256k_x8/ops_per_sec",
           (kThreads * kPerThread) / secs);
}

int run_databus(hyrd::bench::JsonSink& sink) {
  databus_hyrd_roundtrip(sink);
  databus_replicated_get(sink);
  sink.flush("databus");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  hyrd::bench::JsonSink sink(argc, argv);
  if (sink.enabled()) return run_databus(sink);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
