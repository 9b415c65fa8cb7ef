#include "gcsapi/async_batch.h"

#include <algorithm>
#include <chrono>

#include "cloud/cancel.h"
#include "gcsapi/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyrd::gcs {

namespace {

bool default_usable(const CloudCompletion& c) { return c.ok(); }

// How long await_first lets the ops still in flight resolve, in real time,
// after `need` usable ones have. Pool threads finish in an order that has
// nothing to do with virtual arrival, so tearing the tail down at once
// could cancel the op that is fastest in virtual time. Only an op wedged
// this long (the same order as HedgePolicy's default real-stall probe) is
// cancelled.
constexpr std::chrono::milliseconds kStragglerGrace{200};

struct BatchMetrics {
  obs::Counter ops = obs::MetricsRegistry::global().counter("gcs.batch.ops");
  obs::Counter cancelled =
      obs::MetricsRegistry::global().counter("gcs.batch.cancelled");
};

BatchMetrics& batch_metrics() {
  static BatchMetrics m;
  return m;
}

constexpr const char* batch_op_name(CloudOp::Kind kind) {
  switch (kind) {
    case CloudOp::Kind::kPut: return "put";
    case CloudOp::Kind::kGet: return "get";
    case CloudOp::Kind::kGetRange: return "get_range";
    case CloudOp::Kind::kPutRange: return "put_range";
    case CloudOp::Kind::kRemove: return "remove";
  }
  return "?";
}

}  // namespace

AsyncBatch::~AsyncBatch() {
  cancel_remaining();
  std::unique_lock lock(mu_);
  wait_all_resolved(lock);
}

std::size_t AsyncBatch::submit(CloudOp op) {
  std::size_t index;
  {
    std::lock_guard lock(mu_);
    ops_.emplace_back();
    index = ops_.size() - 1;
    ops_.back().op = std::move(op);
  }
  if (sim_ctx_.has_value()) {
    // Discrete-event mode: execute now, on this thread. The op's virtual
    // arrival is already encoded via start_offset, so running it at submit
    // time changes nothing about virtual-time aggregation — it removes the
    // thread handoff, which is what makes a tenant step O(bytes of state)
    // instead of O(pool round trips).
    run_op(index);
  } else {
    session_.pool().submit([this, index] { run_op(index); });
  }
  return index;
}

std::size_t AsyncBatch::submitted() const {
  std::lock_guard lock(mu_);
  return ops_.size();
}

std::size_t AsyncBatch::pending() const {
  std::lock_guard lock(mu_);
  return ops_.size() - resolved_count_;
}

void AsyncBatch::run_op(std::size_t index) {
  OpRec* rec;
  {
    std::lock_guard lock(mu_);
    rec = &ops_[index];  // deque: stable across later submits
  }
  cloud::GetResult result;
  if (rec->cancel.load(std::memory_order_acquire)) {
    // Torn down before dispatch: the request never left the middleware, so
    // the provider sees nothing (no counter, no billing, no latency draw).
    result.status = common::cancelled("torn down before dispatch");
  } else {
    cloud::CancelScope scope(&rec->cancel);
    // In inline mode the provider must see this op's virtual arrival, not
    // the batch epoch: late submissions (failover retries, hedges) reach
    // the congestion queue at epoch + start_offset, exactly when the
    // legacy sum-of-latencies accounting says the request went out.
    std::optional<common::VirtualScope> arrival;
    if (sim_ctx_.has_value()) {
      common::VirtualContext ctx = *sim_ctx_;
      ctx.now += rec->op.start_offset;
      arrival.emplace(ctx);
    }
    CloudClient& client = session_.client(rec->op.client_index);
    switch (rec->op.kind) {
      case CloudOp::Kind::kPut:
        static_cast<cloud::OpResult&>(result) =
            client.put(rec->op.key, rec->op.data);
        break;
      case CloudOp::Kind::kGet:
        result = client.get(rec->op.key);
        break;
      case CloudOp::Kind::kGetRange:
        result = client.get_range(rec->op.key, rec->op.offset, rec->op.length);
        break;
      case CloudOp::Kind::kPutRange:
        static_cast<cloud::OpResult&>(result) =
            client.put_range(rec->op.key, rec->op.offset, rec->op.data);
        break;
      case CloudOp::Kind::kRemove:
        static_cast<cloud::OpResult&>(result) = client.remove(rec->op.key);
        break;
    }
  }
  const bool cancelled =
      result.status.code() == common::StatusCode::kCancelled;
  batch_metrics().ops.inc();
  if (cancelled) batch_metrics().cancelled.inc();
  if (obs::trace_active()) {
    obs::TraceSpan span;
    span.name = batch_op_name(rec->op.kind);
    span.cat = "batch";
    span.tid = sim_ctx_.has_value() ? sim_ctx_->tenant : 0;
    span.ts = (sim_ctx_.has_value() ? sim_ctx_->now : 0) + rec->op.start_offset;
    span.dur = result.latency;
    span.arg("op_index", static_cast<long long>(index))
        .arg("client", static_cast<long long>(rec->op.client_index))
        .arg("cancelled", cancelled ? 1 : 0);
    obs::emit(std::move(span));
  }
  {
    std::lock_guard lock(mu_);
    rec->completion.op_index = index;
    rec->completion.arrival = rec->op.start_offset + result.latency;
    rec->completion.result = std::move(result);
    rec->completion.cancelled = cancelled;
    rec->resolved = true;
    ready_.push_back(index);
    ++resolved_count_;
    // Notify under the lock: once the last op resolves, a waiter (possibly
    // the destructor) may tear the batch down the moment it can re-acquire
    // mu_ — notifying after unlock would touch a condvar that can already
    // be destroyed.
    cv_.notify_all();
  }
}

std::optional<CloudCompletion> AsyncBatch::next() {
  std::unique_lock lock(mu_);
  cv_.wait(lock, [&] {
    return !ready_.empty() || resolved_count_ == ops_.size();
  });
  if (ready_.empty()) return std::nullopt;  // everything delivered
  const std::size_t index = ready_.front();
  ready_.pop_front();
  ops_[index].delivered = true;
  return std::move(ops_[index].completion);
}

std::optional<CloudCompletion> AsyncBatch::next_for(int timeout_ms) {
  std::unique_lock lock(mu_);
  cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return !ready_.empty() || resolved_count_ == ops_.size();
  });
  if (ready_.empty()) return std::nullopt;  // timed out, or all delivered
  const std::size_t index = ready_.front();
  ready_.pop_front();
  ops_[index].delivered = true;
  return std::move(ops_[index].completion);
}

void AsyncBatch::cancel_remaining() {
  std::lock_guard lock(mu_);
  for (auto& rec : ops_) {
    if (!rec.resolved) rec.cancel.store(true, std::memory_order_release);
  }
}

void AsyncBatch::wait_all_resolved(std::unique_lock<std::mutex>& lock) {
  cv_.wait(lock, [&] { return resolved_count_ == ops_.size(); });
}

std::vector<CloudCompletion> AsyncBatch::snapshot_locked() {
  // Payloads are moved out and everything counts as delivered: await_* is
  // terminal for the ops submitted so far, so a later next() only sees ops
  // submitted after it. Trivial fields (arrival, status code, flags)
  // survive the move, so stats stay queryable.
  std::vector<CloudCompletion> out;
  out.reserve(ops_.size());
  for (auto& rec : ops_) {
    rec.delivered = true;
    out.push_back(std::move(rec.completion));
  }
  ready_.clear();
  return out;
}

void AsyncBatch::fill_stats_locked(BatchStats* stats,
                                   common::SimDuration latency) const {
  if (stats == nullptr) return;
  stats->latency = latency;
  stats->completed = resolved_count_;
  stats->max_latency = 0;
  stats->succeeded = 0;
  stats->cancelled = 0;
  for (const auto& rec : ops_) {
    if (rec.completion.cancelled) {
      ++stats->cancelled;
      continue;
    }
    stats->max_latency = std::max(stats->max_latency, rec.completion.arrival);
    if (rec.completion.result.status.is_ok()) ++stats->succeeded;
  }
}

std::vector<CloudCompletion> AsyncBatch::await_all(BatchStats* stats) {
  std::unique_lock lock(mu_);
  wait_all_resolved(lock);
  common::SimDuration latency = 0;
  for (const auto& rec : ops_) {
    if (!rec.completion.cancelled) {
      latency = std::max(latency, rec.completion.arrival);
    }
  }
  fill_stats_locked(stats, latency);
  return snapshot_locked();
}

std::vector<CloudCompletion> AsyncBatch::await_first(std::size_t need,
                                                     BatchStats* stats,
                                                     UsableFn usable) {
  if (!usable) usable = default_usable;
  std::unique_lock lock(mu_);
  const auto usable_count = [&] {
    std::size_t n = 0;
    for (const auto& rec : ops_) {
      if (rec.resolved && usable(rec.completion)) ++n;
    }
    return n;
  };
  cv_.wait(lock, [&] {
    return usable_count() >= need || resolved_count_ == ops_.size();
  });
  // Enough usable responses in hand: winners are picked below by virtual
  // arrival, so give the tail the grace period to resolve, then tear down
  // whatever is still stalled and drain so no task outlives this call.
  // (Inline mode resolved everything at submit; this returns at once.)
  cv_.wait_for(lock, kStragglerGrace,
               [&] { return resolved_count_ == ops_.size(); });
  for (auto& rec : ops_) {
    if (!rec.resolved) rec.cancel.store(true, std::memory_order_release);
  }
  wait_all_resolved(lock);

  std::vector<common::SimDuration> arrivals;
  common::SimDuration max_arrival = 0;
  for (const auto& rec : ops_) {
    if (rec.completion.cancelled) continue;
    max_arrival = std::max(max_arrival, rec.completion.arrival);
    if (usable(rec.completion)) arrivals.push_back(rec.completion.arrival);
  }
  common::SimDuration latency = max_arrival;  // fallback: not enough usable
  if (need > 0 && arrivals.size() >= need) {
    std::nth_element(arrivals.begin(), arrivals.begin() + (need - 1),
                     arrivals.end());
    latency = arrivals[need - 1];
  }
  fill_stats_locked(stats, latency);
  return snapshot_locked();
}

std::vector<CloudCompletion> AsyncBatch::await_quorum(std::size_t quorum,
                                                      BatchStats* stats) {
  // Writes are never torn down: every replica/fragment must land (or fail
  // and be logged) regardless of when the caller is acked.
  std::unique_lock lock(mu_);
  wait_all_resolved(lock);

  std::vector<common::SimDuration> successes;
  common::SimDuration max_arrival = 0;
  for (const auto& rec : ops_) {
    if (rec.completion.cancelled) continue;
    max_arrival = std::max(max_arrival, rec.completion.arrival);
    if (rec.completion.result.status.is_ok()) {
      successes.push_back(rec.completion.arrival);
    }
  }
  const std::size_t need = std::max<std::size_t>(quorum, 1);
  common::SimDuration latency = max_arrival;
  if (successes.size() >= need) {
    std::nth_element(successes.begin(), successes.begin() + (need - 1),
                     successes.end());
    latency = successes[need - 1];
  }
  fill_stats_locked(stats, latency);
  return snapshot_locked();
}

}  // namespace hyrd::gcs
