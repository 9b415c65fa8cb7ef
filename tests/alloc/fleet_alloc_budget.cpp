// Allocation budget of the fleet hot path, as a deterministic tier-1 gate.
//
// This file is its own test executable because it replaces the global
// operator new with a counting one. It runs a 2 000-tenant fleet shaped
// like the fleet-congested benchmark workload (HyRD, default HyRDConfig,
// 4 KiB objects, 25 % writes, default congestion) on the single-threaded
// inline event loop, so the number of allocations per client op is the
// same on every run and every machine: it is a count, not a timing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "cloud/profiles.h"
#include "common/buffer.h"
#include "common/bytes.h"
#include "core/hyrd_client.h"
#include "erasure/striper.h"
#include "gcsapi/session.h"
#include "sim/event_queue.h"
#include "sim/scaleout.h"
#include "sim/tenant.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

// The replacements are kept out of line: inlined into this file's callers,
// GCC would see malloc() meet operator delete and flag a mismatch that
// these pairs do not have.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// The nothrow form too (std::stable_sort's buffer uses it; sanitizer
// runtimes would otherwise serve it with their own allocator, unpaired
// with the free()-based deletes below). The array forms are left to the
// library, whose defaults forward to these.
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hyrd {
namespace {

/// Allocations per client op the fleet path may make. It was 80.5 when
/// every provider op round-tripped its REST envelope and the store, fair
/// queue and event queue allocated a node per entry.
constexpr double kAllocsPerOpBudget = 40.0;

TEST(AllocBudget, FleetClientOpStaysWithinBudget) {
  sim::ScaleoutConfig cfg;  // fleet-congested's per-tenant shape
  cfg.tenants = 2'000;
  cfg.seed = 1;

  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, cfg.seed);
  for (const auto& p : registry.all()) p->set_congestion(cfg.congestion);
  gcs::MultiCloudSession session(registry, cfg.client_retry);
  core::HyRDClient client(session);

  const common::Buffer arena =
      common::Buffer::from(common::patterned(cfg.arena_bytes, 5));
  sim::FleetMetrics metrics;
  sim::EventQueue queue;
  std::vector<sim::Tenant> tenants;
  tenants.reserve(cfg.tenants);
  for (std::size_t i = 0; i < cfg.tenants; ++i) {
    tenants.emplace_back(i, 1000 + i, cfg.tenant, client, arena, metrics);
  }
  for (std::size_t i = 0; i < cfg.tenants; ++i) {
    queue.schedule_at(static_cast<common::SimDuration>(
                          static_cast<double>(cfg.ramp) *
                          static_cast<double>(i) /
                          static_cast<double>(cfg.tenants)),
                      &tenants[i]);
  }

  g_counting.store(true);
  const std::uint64_t before = g_allocs.load();
  queue.run();
  const std::uint64_t allocs = g_allocs.load() - before;
  g_counting.store(false);

  const std::uint64_t ops = metrics.ops_ok + metrics.ops_failed;
  ASSERT_EQ(metrics.ops_failed, 0u);
  ASSERT_EQ(metrics.tenants_finished, cfg.tenants);
  ASSERT_EQ(ops, cfg.tenants * cfg.tenant.ops);
  const double per_op = static_cast<double>(allocs) / static_cast<double>(ops);
  std::printf("allocations per client op: %.2f (%llu over %llu ops)\n", per_op,
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(ops));
  RecordProperty("allocs_per_op", std::to_string(per_op));
  EXPECT_LE(per_op, kAllocsPerOpBudget);
}

/// Allocations made by one degraded Striper::assemble (data slot 0 lost)
/// and one Striper::rebuild of that slot, without a pool, for a k=2, m=1
/// stripe whose shards span `columns` columns (the last one partial).
struct StripeAllocs {
  std::uint64_t assemble = 0;
  std::uint64_t rebuild = 0;
};

StripeAllocs stripe_allocs(std::size_t columns) {
  const erasure::Striper striper({.k = 2, .m = 1});
  const std::size_t size = 2 * columns * erasure::Striper::kColumn - 3;
  const erasure::StripeSet set =
      striper.encode(common::Buffer::from(common::patterned(size, columns)));
  std::vector<std::optional<common::Buffer>> shards(set.shards.begin(),
                                                    set.shards.end());
  shards[0].reset();
  auto slots = shards;
  const std::vector<std::size_t> wanted = {0};
  StripeAllocs out;

  g_counting.store(true);
  std::uint64_t before = g_allocs.load();
  auto object =
      striper.assemble(set.object_size, set.object_crc, std::move(slots));
  out.assemble = g_allocs.load() - before;
  before = g_allocs.load();
  auto rebuilt = striper.rebuild(shards, wanted);
  out.rebuild = g_allocs.load() - before;
  g_counting.store(false);

  EXPECT_TRUE(object.is_ok());
  EXPECT_TRUE(rebuilt.is_ok());
  if (rebuilt.is_ok()) {
    EXPECT_EQ(rebuilt.value()[0], set.shards[0]);
  }
  return out;
}

// The decode rows are planned once per stripe and the per-column work
// allocates nothing, so a stripe's allocations do not depend on its size.
TEST(AllocBudget, StripeAllocationsDoNotGrowWithColumns) {
  const StripeAllocs one = stripe_allocs(1);
  const StripeAllocs sixteen = stripe_allocs(16);
  std::printf("degraded assemble: %llu allocations at 1 and %llu at 16 "
              "columns; rebuild: %llu and %llu\n",
              static_cast<unsigned long long>(one.assemble),
              static_cast<unsigned long long>(sixteen.assemble),
              static_cast<unsigned long long>(one.rebuild),
              static_cast<unsigned long long>(sixteen.rebuild));
  EXPECT_EQ(one.assemble, sixteen.assemble);
  EXPECT_EQ(one.rebuild, sixteen.rebuild);
}

}  // namespace
}  // namespace hyrd
