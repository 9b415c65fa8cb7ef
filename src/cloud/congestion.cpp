#include "cloud/congestion.h"

#include <algorithm>
#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyrd::cloud {

namespace {

// Registry handles for the fair-queue plane, resolved once.
struct FqMetrics {
  obs::Counter admitted =
      obs::MetricsRegistry::global().counter("cloud.fq.admitted");
  obs::Counter queued =
      obs::MetricsRegistry::global().counter("cloud.fq.queued");
  obs::Counter throttled =
      obs::MetricsRegistry::global().counter("cloud.fq.throttled");
  obs::Counter wait_ns =
      obs::MetricsRegistry::global().counter("cloud.fq.wait_ns");
};

FqMetrics& fq_metrics() {
  static FqMetrics m;
  return m;
}

}  // namespace

FairQueue::FairQueue(CongestionParams params) : params_(params) {
  if (params_.channels == 0) params_.channels = 1;
  slot_free_.assign(params_.channels, 0);
}

common::SimDuration FairQueue::service_time(std::uint64_t bytes) const {
  double ms = params_.per_op_service_ms;
  if (bytes > 0 && params_.service_mbps > 0) {
    ms += static_cast<double>(bytes) / (params_.service_mbps * 1e6) * 1e3;
  }
  return common::from_ms(ms);
}

void FairQueue::prune(common::SimDuration arrival) {
  while (!waiting_.empty() && waiting_.top() <= arrival) waiting_.pop();
}

std::size_t FairQueue::depth_at(common::SimDuration now) {
  prune(now);
  return waiting_.size();
}

FairQueue::Admission FairQueue::admit(std::uint64_t tenant, double weight,
                                      common::SimDuration arrival,
                                      std::uint64_t bytes) {
  prune(arrival);
  if (waiting_.size() >= params_.max_queue_depth) {
    ++stats_.throttled;
    fq_metrics().throttled.inc();
    if (obs::trace_active()) {
      obs::TraceSpan span;
      span.name = "throttle429";
      span.cat = "cloud";
      span.tid = tenant;
      span.ts = arrival;
      span.arg("depth", static_cast<long long>(waiting_.size()));
      obs::emit(std::move(span));
    }
    return {.admitted = false, .wait = 0};
  }

  const common::SimDuration service = service_time(bytes);
  if (weight <= 0.0) weight = 1.0;

  // Per-flow pacing gate: a flow past its weighted share waits on its own
  // tag even when a slot is free, so one hot tenant cannot starve the rest.
  const std::uint64_t flow_hash = common::stable_key_hash(tenant);
  common::SimDuration gate = arrival;
  if (const auto* tag = flow_tag_.find_h(flow_hash, tenant)) {
    gate = std::max(gate, *tag);
  }

  auto slot = std::min_element(slot_free_.begin(), slot_free_.end());
  const common::SimDuration begin = std::max(gate, *slot);
  *slot = begin + service;
  flow_tag_.try_emplace_h(flow_hash, tenant) =
      begin + static_cast<common::SimDuration>(
                  static_cast<double>(service) / weight);

  const common::SimDuration wait = begin - arrival;
  ++stats_.admitted;
  fq_metrics().admitted.inc();
  if (wait > 0) {
    fq_metrics().queued.inc();
    fq_metrics().wait_ns.add(static_cast<std::uint64_t>(wait));
    ++stats_.queued;
    waiting_.push(begin);
    stats_.peak_depth = std::max(stats_.peak_depth, waiting_.size());
    stats_.total_wait += wait;
    stats_.max_wait = std::max(stats_.max_wait, wait);
  }

  // The tag map must track backlogged flows, not every tenant ever seen:
  // at 10^6 closed-loop tenants an unpruned map is hundreds of MB. Tags at
  // or behind the current arrival are inert (gate falls back to arrival).
  if (++admits_since_prune_ >= 4096) {
    admits_since_prune_ = 0;
    flow_tag_.erase_if([arrival](std::uint64_t, common::SimDuration t) {
      return t <= arrival;
    });
  }
  return {.admitted = true, .wait = wait};
}

}  // namespace hyrd::cloud
