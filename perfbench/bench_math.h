// Pure helpers of hyrd_perfbench: the percentile rule, ratio bases
// and per-layer self-time subtraction. Kept free of HyRD types so
// `hyrd_perfbench --selftest` can check them on hand-made inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of percentile `p` (0..100] in `n` samples.
inline std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double r = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

/// Samples strictly beyond the nearest-rank percentile `p`.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

/// A percentile is reported only when at least ten samples lie beyond it.
inline bool percentile_resolved(std::size_t n, double p) {
  return n > 0 && samples_beyond(n, p) >= 10;
}

/// The highest percentile of the ladder {50, 90, 99, 99.9, 99.99} that has
/// at least ten samples beyond it; 0 when even the median does not.
inline double highest_resolved_percentile(std::size_t n) {
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (percentile_resolved(n, p)) return p;
  }
  return 0.0;
}

/// Nearest-rank percentile of an unsorted sample set (0 when empty).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const std::size_t k = nearest_rank(v.size(), p) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// `num / den`, 0 when the base is empty. Every ratio hyrd_perfbench prints is
/// formed here, so its base is explicit at the call site.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Counts of one measured pass, the bases of every per-op ratio.
struct PassCounts {
  std::uint64_t client_ops = 0;       // completed client ops (ok + failed)
  std::uint64_t failed_ops = 0;
  std::uint64_t user_bytes_written = 0;
  std::uint64_t user_bytes_read = 0;
  std::uint64_t live_user_bytes = 0;  // sum of stat() sizes after the pass
  std::uint64_t provider_stored_bytes = 0;
  std::uint64_t provider_ops = 0;     // provider data-plane ops (all kinds)
  std::uint64_t provider_bytes_written = 0;
  std::uint64_t provider_bytes_read = 0;
  std::uint64_t gcs_ops = 0;          // CloudClient calls
  std::uint64_t gcs_attempts = 0;     // provider attempts incl. retries
  std::uint64_t fq_admitted = 0;
  std::uint64_t fq_queued = 0;
  std::uint64_t fq_wait_ns = 0;
  std::uint64_t events = 0;
};

struct PassRatios {
  double failed_op_ratio = 0;           // failed / attempted client ops
  double storage_overhead = 0;          // provider stored / live user bytes
  double bytes_written_per_user_byte = 0;
  double bytes_read_per_user_byte = 0;
  double provider_ops_per_op = 0;       // provider ops / client ops
  double attempts_per_op = 0;           // attempts / CloudClient calls
  double fq_queued_ratio = 0;           // queued / admitted
  double fq_wait_ms_per_provider_op = 0;
  double events_per_op = 0;             // dispatched events / client ops
};

inline PassRatios ratios_of(const PassCounts& c) {
  const auto d = [](std::uint64_t x) { return static_cast<double>(x); };
  PassRatios r;
  r.failed_op_ratio = ratio(d(c.failed_ops), d(c.client_ops));
  r.storage_overhead = ratio(d(c.provider_stored_bytes), d(c.live_user_bytes));
  r.bytes_written_per_user_byte =
      ratio(d(c.provider_bytes_written), d(c.user_bytes_written));
  r.bytes_read_per_user_byte =
      ratio(d(c.provider_bytes_read), d(c.user_bytes_read));
  r.provider_ops_per_op = ratio(d(c.provider_ops), d(c.client_ops));
  r.attempts_per_op = ratio(d(c.gcs_attempts), d(c.gcs_ops));
  r.fq_queued_ratio = ratio(d(c.fq_queued), d(c.fq_admitted));
  r.fq_wait_ms_per_provider_op = ratio(d(c.fq_wait_ns) / 1e6, d(c.provider_ops));
  r.events_per_op = ratio(d(c.events), d(c.client_ops));
  return r;
}

/// Inclusive time per client op of each probed layer, in microseconds. A
/// layer's probe includes everything below it: core ⊃ gcsapi (CloudClient)
/// ⊃ cloud provider (SimProvider, fair queue included) ⊃ MemoryStore.
struct LayerCost {
  double core_us = 0;      // StorageClient calls (dist schemes + metadata)
  double gcs_us = 0;       // CloudClient calls the op issued
  double provider_us = 0;  // SimProvider calls
  double store_us = 0;     // MemoryStore calls
  double sim_us = 0;       // event-queue work (beside the client call)
};

struct SelfTimes {
  double core_self_us = 0;      // core + dist + metadata: core - gcs
  double gcs_self_us = 0;       // envelope, retry loop, trace ring
  double provider_self_us = 0;  // latency model, billing, fair queue
  double store_us = 0;          // the store has no probed child
  double sim_us = 0;
  double attributed_us = 0;     // sum of the above
  double unattributed_share = 0;
};

/// Self time is a layer's inclusive time minus its child's; the shares sum
/// back to core + sim. `wall_us_per_op` is the traced run's wall time per
/// client op: what the probes leave unexplained is reported as a share of it.
inline SelfTimes self_times(const LayerCost& c, double wall_us_per_op) {
  SelfTimes s;
  s.core_self_us = c.core_us - c.gcs_us;
  s.gcs_self_us = c.gcs_us - c.provider_us;
  s.provider_self_us = c.provider_us - c.store_us;
  s.store_us = c.store_us;
  s.sim_us = c.sim_us;
  s.attributed_us = s.core_self_us + s.gcs_self_us + s.provider_self_us +
                    s.store_us + s.sim_us;
  s.unattributed_share =
      ratio(wall_us_per_op - s.attributed_us, wall_us_per_op);
  return s;
}

}  // namespace perfbench
