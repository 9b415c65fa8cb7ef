// Microbenchmarks for the erasure-coding substrate: GF(2^8) region
// kernels, Reed–Solomon encode/decode across geometries (RAID5 is RS(k, 1)),
// checksum kernels, and whole-object striping throughput.
//
// Supports `--json` (machine-readable results on stdout) and
// `--json=FILE` (write FILE, keep the console table) on top of the usual
// google-benchmark flags.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "erasure/fmsr.h"
#include "erasure/gf256.h"
#include "erasure/reed_solomon.h"
#include "erasure/striper.h"

using namespace hyrd;

namespace {

std::vector<common::Bytes> make_shards(std::size_t k, std::size_t size) {
  std::vector<common::Bytes> shards;
  for (std::size_t i = 0; i < k; ++i) {
    shards.push_back(common::patterned(size, i + 1));
  }
  return shards;
}

void BM_GF256MulAddRegion(benchmark::State& state) {
  const auto& gf = erasure::GF256::instance();
  common::Bytes src = common::patterned(static_cast<std::size_t>(state.range(0)), 1);
  common::Bytes dst = common::patterned(src.size(), 2);
  for (auto _ : state) {
    gf.mul_add_region(dst, src, 0x57);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_GF256MulAddRegion)->Range(1 << 10, 1 << 22)->Arg(1 << 20);

// The retained byte-at-a-time reference kernel: the before/after baseline
// for the wide-word path above.
void BM_GF256MulAddRegionScalar(benchmark::State& state) {
  const auto& gf = erasure::GF256::instance();
  common::Bytes src =
      common::patterned(static_cast<std::size_t>(state.range(0)), 1);
  common::Bytes dst = common::patterned(src.size(), 2);
  for (auto _ : state) {
    gf.mul_add_region_scalar(dst, src, 0x57);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_GF256MulAddRegionScalar)->Arg(1 << 16)->Arg(1 << 20);

// Fused k-source row (what one parity row of RS encode costs).
void BM_GF256MulRegionMulti(benchmark::State& state) {
  const auto& gf = erasure::GF256::instance();
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t size = static_cast<std::size_t>(state.range(1));
  const auto shards = make_shards(k, size);
  std::vector<common::ByteSpan> srcs(shards.begin(), shards.end());
  std::vector<std::uint8_t> coeffs;
  for (std::size_t i = 0; i < k; ++i) {
    coeffs.push_back(static_cast<std::uint8_t>(0x53 + i));
  }
  common::Bytes dst(size, 0);
  for (auto _ : state) {
    gf.mul_region_multi(dst, srcs, coeffs.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * size));
}
BENCHMARK(BM_GF256MulRegionMulti)
    ->Args({4, 1 << 16})
    ->Args({4, 1 << 20})
    ->Args({8, 1 << 20});

void BM_RsEncode(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  const std::size_t shard_size = static_cast<std::size_t>(state.range(2));
  erasure::ReedSolomon rs(k, m);
  const auto shards = make_shards(k, shard_size);
  for (auto _ : state) {
    auto parity = rs.encode(shards);
    benchmark::DoNotOptimize(parity);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * shard_size));
}
BENCHMARK(BM_RsEncode)
    ->Args({3, 1, 256 << 10})
    ->Args({4, 2, 256 << 10})
    ->Args({6, 3, 256 << 10})
    ->Args({8, 4, 256 << 10})
    ->Args({4, 2, 1 << 20})
    ->Args({8, 4, 1 << 20});

// Encode into parity buffers reused across iterations: the GF work alone,
// without the per-call allocation and zero-fill BM_RsEncode pays. As in the
// stripe encoder, the parity slots are planned over the data slots once
// and the plan is applied per buffer.
void BM_RsEncodeInto(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  const std::size_t shard_size = static_cast<std::size_t>(state.range(2));
  erasure::ReedSolomon rs(k, m);
  const auto shards = make_shards(k, shard_size);
  std::vector<std::optional<common::ByteSpan>> views(k + m);
  std::vector<std::size_t> parity_slots;
  for (std::size_t i = 0; i < k; ++i) views[i] = common::ByteSpan(shards[i]);
  for (std::size_t p = 0; p < m; ++p) parity_slots.push_back(k + p);
  const auto plan = rs.plan(views, parity_slots);
  std::vector<common::Bytes> parity(m, common::Bytes(shard_size));
  for (auto _ : state) {
    for (std::size_t p = 0; p < m; ++p) {
      auto st = plan.value().apply(p, 0, parity[p]);
      benchmark::DoNotOptimize(st);
    }
    benchmark::DoNotOptimize(parity[0].data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * shard_size));
}
BENCHMARK(BM_RsEncodeInto)
    ->Args({2, 1, 1 << 20})
    ->Args({3, 1, 256 << 10})
    ->Args({4, 2, 256 << 10})
    ->Args({8, 4, 256 << 10})
    ->Args({4, 2, 1 << 20})
    ->Args({8, 4, 1 << 20});

/// Worst-case survivors for RS(k, m): the first m data shards are missing.
struct WorstCase {
  std::vector<common::Bytes> data, parity;
  std::vector<std::optional<common::ByteSpan>> views;
  std::vector<std::size_t> wanted;

  WorstCase(const erasure::ReedSolomon& rs, std::size_t shard_size)
      : data(make_shards(rs.data_shards(), shard_size)),
        parity(rs.encode(data).value()),
        views(rs.total_shards()) {
    const std::size_t k = rs.data_shards();
    const std::size_t m = rs.parity_shards();
    for (std::size_t i = m; i < k; ++i) views[i] = common::ByteSpan(data[i]);
    for (std::size_t i = 0; i < m; ++i) views[k + i] = common::ByteSpan(parity[i]);
    for (std::size_t i = 0; i < m; ++i) wanted.push_back(i);
  }
};

// Outputs allocated and zero-filled per call, as a caller without a
// reusable destination pays.
void BM_RsReconstructWorstCase(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  erasure::ReedSolomon rs(k, m);
  const WorstCase wc(rs, 256 * 1024);
  for (auto _ : state) {
    std::vector<common::Bytes> out(m, common::Bytes(256 * 1024, 0));
    const std::vector<common::MutByteSpan> dst(out.begin(), out.end());
    auto st = rs.reconstruct_into(wc.views, wc.wanted, dst);
    benchmark::DoNotOptimize(st);
    benchmark::DoNotOptimize(out[0].data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * 256 * 1024));
}
BENCHMARK(BM_RsReconstructWorstCase)->Args({3, 1})->Args({4, 2})->Args({8, 4});

// The same reconstruction into outputs reused across iterations, run the
// way the striper runs it: one plan per stripe (the survivor rows and
// G[wanted] * inv(G[rows]), timed here), applied column by column.
void BM_RsReconstructInto(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t m = static_cast<std::size_t>(state.range(1));
  const std::size_t shard_size = static_cast<std::size_t>(state.range(2));
  constexpr std::size_t kColumn = erasure::Striper::kColumn;
  erasure::ReedSolomon rs(k, m);
  const WorstCase wc(rs, shard_size);
  std::vector<common::Bytes> out(m, common::Bytes(shard_size));
  for (auto _ : state) {
    auto plan = rs.plan(wc.views, wc.wanted);
    for (std::size_t off = 0; off < shard_size; off += kColumn) {
      const std::size_t len = std::min(kColumn, shard_size - off);
      for (std::size_t j = 0; j < m; ++j) {
        auto st = plan.value().apply(
            j, off, common::MutByteSpan(out[j].data() + off, len));
        benchmark::DoNotOptimize(st);
      }
    }
    benchmark::DoNotOptimize(out[0].data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * shard_size));
}
BENCHMARK(BM_RsReconstructInto)
    ->Args({2, 1, 1 << 20})
    ->Args({3, 1, 256 << 10})
    ->Args({4, 2, 256 << 10})
    ->Args({8, 4, 256 << 10});

// The stripe encoder over an owned object (full data shards are slices of
// it), without a pool (threads = 0) and column-parallel on a 3-thread pool
// plus the calling thread. Timed in wall time: the pool's helpers do work
// the calling thread's CPU time would not show.
void BM_StriperEncode(benchmark::State& state) {
  erasure::Striper striper({.k = 3, .m = 1});
  const auto object = common::Buffer::from(
      common::patterned(static_cast<std::size_t>(state.range(0)), 7));
  std::optional<common::ThreadPool> pool;
  if (state.range(1) > 0) {
    pool.emplace(static_cast<std::size_t>(state.range(1)));
  }
  for (auto _ : state) {
    auto set = striper.encode(object, pool.has_value() ? &*pool : nullptr);
    benchmark::DoNotOptimize(set);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StriperEncode)
    ->ArgNames({"bytes", "threads"})
    ->ArgsProduct({benchmark::CreateRange(64 << 10, 16 << 20, 8), {0, 3}})
    ->UseRealTime();

void BM_FmsrEncode(benchmark::State& state) {
  erasure::Fmsr code(4, 2);
  common::Xoshiro256 rng(1);
  const auto object =
      common::patterned(static_cast<std::size_t>(state.range(0)), 9);
  for (auto _ : state) {
    auto enc = code.encode(object, rng);
    benchmark::DoNotOptimize(enc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FmsrEncode)->Range(64 << 10, 4 << 20);

void BM_FmsrPlanAndRepair(benchmark::State& state) {
  erasure::Fmsr code(4, 2);
  common::Xoshiro256 rng(2);
  const auto object =
      common::patterned(static_cast<std::size_t>(state.range(0)), 10);
  auto enc = code.encode(object, rng);
  for (auto _ : state) {
    auto plan = code.plan_repair(enc.coefficients, 1, rng);
    std::vector<common::Bytes> survivor_chunks;
    for (std::size_t idx : plan.value().survivor_chunk_indices) {
      survivor_chunks.push_back(enc.chunks[idx]);
    }
    auto chunks = code.execute_repair(plan.value(), survivor_chunks);
    benchmark::DoNotOptimize(chunks);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 3 / 4);  // repair traffic
}
BENCHMARK(BM_FmsrPlanAndRepair)->Range(64 << 10, 4 << 20);

void BM_StriperDegradedDecode(benchmark::State& state) {
  erasure::Striper striper({.k = 3, .m = 1});
  const auto object =
      common::patterned(static_cast<std::size_t>(state.range(0)), 8);
  const auto set = striper.encode(object);
  for (auto _ : state) {
    std::vector<std::optional<common::Buffer>> shards(set.shards.begin(),
                                                      set.shards.end());
    shards[0].reset();  // data shard 0 missing, use parity
    auto decoded =
        striper.assemble(set.object_size, set.object_crc, std::move(shards));
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_StriperDegradedDecode)->Range(64 << 10, 16 << 20);

void BM_Crc32c(benchmark::State& state) {
  const auto data =
      common::patterned(static_cast<std::size_t>(state.range(0)), 11);
  for (auto _ : state) {
    auto crc = common::crc32c(data);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
// The range includes 4 KiB; with 16 KiB it covers the fleet workloads'
// object sizes.
BENCHMARK(BM_Crc32c)->Range(1 << 10, 4 << 20)->Arg(16 << 10);

// Object CRC of a stripe from its slots' CRCs: one combine per data slot.
void BM_Crc32cCombine(benchmark::State& state) {
  const auto len2 = static_cast<std::uint64_t>(state.range(0));
  std::uint32_t crc1 = common::crc32c(common::patterned(64, 13));
  const std::uint32_t crc2 = common::crc32c(common::patterned(64, 14));
  for (auto _ : state) {
    crc1 = common::crc32c_combine(crc1, crc2, len2);
    benchmark::DoNotOptimize(crc1);
  }
}
BENCHMARK(BM_Crc32cCombine)->Arg(4 << 10)->Arg(1 << 20)->Arg(4 << 20);

void BM_Sha256(benchmark::State& state) {
  const auto data =
      common::patterned(static_cast<std::size_t>(state.range(0)), 12);
  for (auto _ : state) {
    auto digest = common::Sha256::digest(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Range(1 << 10, 4 << 20);

}  // namespace

// Custom entry point: `--json` / `--json=FILE` are shorthands for the
// verbose google-benchmark output flags, so scripted runs can do
// `bench_erasure_micro --json=BENCH_erasure.json` and parse MB/s.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  args.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--json") {
      args.emplace_back("--benchmark_format=json");
    } else if (a.starts_with("--json=")) {
      args.emplace_back(std::string("--benchmark_out=") +
                        std::string(a.substr(7)));
      args.emplace_back("--benchmark_out_format=json");
    } else {
      args.emplace_back(a);
    }
  }
  std::vector<char*> cargv;
  cargv.reserve(args.size());
  for (auto& s : args) cargv.push_back(s.data());
  int cargc = static_cast<int>(cargv.size());
  benchmark::Initialize(&cargc, cargv.data());
  if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
