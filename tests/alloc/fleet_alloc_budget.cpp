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
#include <vector>

#include "cloud/profiles.h"
#include "common/buffer.h"
#include "common/bytes.h"
#include "core/hyrd_client.h"
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

}  // namespace
}  // namespace hyrd
