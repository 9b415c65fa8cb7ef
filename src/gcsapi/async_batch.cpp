#include "gcsapi/async_batch.h"

#include <algorithm>

#include "gcsapi/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyrd::gcs {

namespace {

bool is_ok(const CloudCompletion& c) { return c.ok(); }

obs::Counter& batch_ops_counter() {
  static obs::Counter c = obs::MetricsRegistry::global().counter("gcs.batch.ops");
  return c;
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

std::size_t AsyncBatch::submit(CloudOp op) {
  const std::size_t index = done_.size();
  cloud::GetResult result;
  {
    // The provider must see this op's virtual arrival, not the batch
    // epoch: late submissions (failover retries, hedges) reach the
    // congestion queue at epoch + start_offset, exactly when the legacy
    // sum-of-latencies accounting says the request went out.
    std::optional<common::VirtualScope> arrival;
    if (sim_ctx_.has_value()) {
      common::VirtualContext ctx = *sim_ctx_;
      ctx.now += op.start_offset;
      arrival.emplace(ctx);
    }
    CloudClient& client = session_.client(op.client_index);
    switch (op.kind) {
      case CloudOp::Kind::kPut:
        static_cast<cloud::OpResult&>(result) = client.put(op.key, op.data);
        break;
      case CloudOp::Kind::kGet:
        result = client.get(op.key);
        break;
      case CloudOp::Kind::kGetRange:
        result = client.get_range(op.key, op.offset, op.length);
        break;
      case CloudOp::Kind::kPutRange:
        static_cast<cloud::OpResult&>(result) =
            client.put_range(op.key, op.offset, op.data);
        break;
      case CloudOp::Kind::kRemove:
        static_cast<cloud::OpResult&>(result) = client.remove(op.key);
        break;
    }
  }
  batch_ops_counter().inc();
  if (obs::trace_active()) {
    obs::TraceSpan span;
    span.name = batch_op_name(op.kind);
    span.cat = "batch";
    span.tid = sim_ctx_.has_value() ? sim_ctx_->tenant : 0;
    span.ts = (sim_ctx_.has_value() ? sim_ctx_->now : 0) + op.start_offset;
    span.dur = result.latency;
    span.arg("op_index", static_cast<long long>(index))
        .arg("client", static_cast<long long>(op.client_index));
    obs::emit(std::move(span));
  }
  CloudCompletion& c = done_.emplace_back();
  c.op_index = index;
  c.arrival = op.start_offset + result.latency;
  c.result = std::move(result);
  return index;
}

std::vector<CloudCompletion> AsyncBatch::finish(std::size_t need,
                                                const UsableFn& counts,
                                                BatchStats* stats) {
  std::vector<common::SimDuration> counted;
  common::SimDuration max_arrival = 0;
  std::size_t succeeded = 0;
  for (const auto& c : done_) {
    max_arrival = std::max(max_arrival, c.arrival);
    if (c.ok()) ++succeeded;
    if (need > 0 && counts(c)) counted.push_back(c.arrival);
  }
  common::SimDuration latency = max_arrival;
  if (need > 0 && counted.size() >= need) {
    std::nth_element(counted.begin(), counted.begin() + (need - 1),
                     counted.end());
    latency = counted[need - 1];
  }
  if (stats != nullptr) {
    stats->latency = latency;
    stats->max_latency = max_arrival;
    stats->completed = done_.size();
    stats->succeeded = succeeded;
  }
  // Payloads move to the caller. Trivial fields (arrival, status code)
  // survive the move, so a later await_* over the same batch still
  // aggregates every op.
  std::vector<CloudCompletion> out;
  out.reserve(done_.size());
  for (auto& c : done_) out.push_back(std::move(c));
  return out;
}

std::vector<CloudCompletion> AsyncBatch::await_all(BatchStats* stats) {
  return finish(0, nullptr, stats);
}

std::vector<CloudCompletion> AsyncBatch::await_first(std::size_t need,
                                                     BatchStats* stats,
                                                     UsableFn usable) {
  return finish(need, usable ? usable : UsableFn(is_ok), stats);
}

std::vector<CloudCompletion> AsyncBatch::await_quorum(std::size_t quorum,
                                                      BatchStats* stats) {
  return finish(std::max<std::size_t>(quorum, 1), is_ok, stats);
}

}  // namespace hyrd::gcs
