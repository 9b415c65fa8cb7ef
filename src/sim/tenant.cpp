#include "sim/tenant.h"

#include <cmath>

#include "common/virtual_time.h"
#include "obs/trace.h"

namespace hyrd::sim {

common::Buffer Tenant::draw_payload() {
  // A random-offset window into the shared arena: unique-enough content,
  // zero allocation, zero copy (the store keeps the slice by refbump).
  const std::uint64_t span = arena_.size() - config_.object_bytes;
  const std::uint64_t offset = span == 0 ? 0 : rng_() % span;
  return arena_.slice(offset, config_.object_bytes);
}

common::SimDuration Tenant::draw_think() {
  return static_cast<common::SimDuration>(
      static_cast<double>(config_.mean_think) * rng_.exponential(1.0));
}

void Tenant::on_event(EventQueue& queue, common::SimDuration now) {
  // Everything issued from this step carries (now, id, weight):
  // SimProvider's fair queue sees the arrival instant and the flow
  // identity.
  common::VirtualScope scope({now, id_, config_.weight});

  // Metadata traffic: a stat is answered from the client-resident sharded
  // store — one lock-striped shard lookup, no provider op, zero virtual
  // latency. Guarded so the draw never happens at the default ratio of 0
  // and default runs keep their exact RNG streams.
  if (attempt_ == 0 && config_.stat_ratio > 0 && has_object_ &&
      rng_.chance(config_.stat_ratio)) {
    ++metrics_.ops_started;
    ++metrics_.meta_stats;
    const bool found = client_.stat(path_).has_value();
    metrics_.note_op(/*is_put=*/false, found, 0, now);
    ++ops_done_;
    if (ops_done_ >= config_.ops) {
      ++metrics_.tenants_finished;
      return;
    }
    queue.schedule_at(now + draw_think(), this);
    return;
  }

  // A retry wakeup re-issues the same op kind; a fresh op draws one.
  const bool is_put = attempt_ > 0
                          ? retry_is_put_
                          : !has_object_ || rng_.chance(config_.write_ratio);
  if (attempt_ == 0) ++metrics_.ops_started;
  ++attempt_;

  common::SimDuration latency = 0;
  common::Status status;
  if (is_put) {
    client_.put_async(path_, draw_payload(), [&](dist::WriteResult r) {
      latency = r.latency;
      status = r.status;
    });
  } else {
    client_.get_async(path_, [&](dist::ReadResult r) {
      latency = r.latency;
      status = r.status;
    });
  }
  const bool ok = status.is_ok();
  op_spent_ += latency;

  if (obs::trace_active()) {
    obs::TraceSpan span;
    span.name = is_put ? "put" : "get";
    span.cat = "tenant";
    span.tid = id_;
    span.ts = now;
    span.dur = latency;
    span.arg("attempt", static_cast<long long>(attempt_)).arg("ok", ok ? 1 : 0);
    obs::emit(std::move(span));
  }

  // Back off and resume: a retryable failure (throttle 429, outage) does
  // not end the op — the tenant schedules its next attempt as an event at
  // now + latency + backoff, so the whole fleet's retry pressure is paced
  // by the policy's jittered ladder instead of stampeding the fair queue,
  // and failure-injector recoveries fire in between.
  if (!ok && config_.retry.retryable(status.code()) &&
      attempt_ < static_cast<std::uint32_t>(config_.retry.max_attempts)) {
    const common::SimDuration backoff = config_.retry.backoff_before(
        static_cast<int>(attempt_),
        id_ ^ static_cast<std::uint64_t>(now));
    if (!config_.retry.over_deadline(op_spent_, backoff)) {
      retry_is_put_ = is_put;
      op_spent_ += backoff;
      metrics_.note_retry(now + latency);
      queue.schedule_at(now + latency + backoff, this);
      return;  // op still in flight; ops_done_ unchanged
    }
  }

  if (ok && is_put) has_object_ = true;
  ++ops_done_;
  // The op's client-visible latency includes every attempt and backoff.
  metrics_.note_op(is_put, ok, op_spent_, now + latency);
  attempt_ = 0;
  op_spent_ = 0;

  if (ops_done_ >= config_.ops) {
    ++metrics_.tenants_finished;
    return;  // no further events: this tenant's lifecycle is complete
  }
  queue.schedule_at(now + latency + draw_think(), this);
}

}  // namespace hyrd::sim
