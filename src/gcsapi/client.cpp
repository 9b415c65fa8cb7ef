#include "gcsapi/client.h"

#include <cassert>
#include <optional>

#include "common/checksum.h"
#include "common/virtual_time.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyrd::gcs {

namespace {

// Retry-loop metrics, registered once. `attempts - ops` is the retry
// amplification the timeline sampler windows over.
struct ClientMetrics {
  obs::Counter ops = obs::MetricsRegistry::global().counter("gcs.ops");
  obs::Counter attempts =
      obs::MetricsRegistry::global().counter("gcs.attempts");
  obs::Counter retries = obs::MetricsRegistry::global().counter("gcs.retries");
  obs::Counter backoff_ns =
      obs::MetricsRegistry::global().counter("gcs.backoff_ns");
};

ClientMetrics& client_metrics() {
  static ClientMetrics m;
  return m;
}

}  // namespace

CloudClient::CloudClient(cloud::SimProvider* provider, RetryPolicy policy)
    : provider_(provider), policy_(policy) {
  assert(provider_ != nullptr);
}

template <typename ResultT, typename ExecFn>
ResultT CloudClient::run(cloud::OpKind op, const cloud::ObjectKey& key,
                         ExecFn&& exec) {
  // Retry loop. Under a VirtualScope (discrete-event traffic) every attempt
  // past the first re-installs the scope with `now` advanced by everything
  // already charged to the op — attempt latencies plus backoff — so a retry
  // *arrives later* at the provider's fair queue instead of replaying the
  // original virtual instant (which would find the same backlog and be
  // re-throttled forever).
  const std::optional<common::VirtualContext> base =
      common::VirtualScope::snapshot();
  // fnv1a of "container/name", chained so no joined key is built.
  const std::uint64_t decorrelate =
      common::fnv1a(key.name, common::fnv1a("/", common::fnv1a(key.container))) ^
      (base ? base->tenant ^ static_cast<std::uint64_t>(base->now) : 0);

  ResultT result;
  common::SimDuration total_latency = 0;
  common::SimDuration backoff_total = 0;
  int attempt = 0;
  for (;;) {
    ++attempt;
    if (base && attempt > 1) {
      common::VirtualScope advanced(
          {base->now + total_latency, base->tenant, base->weight});
      result = exec();
    } else {
      result = exec();
    }
    total_latency += result.latency;
    if (result.ok() || !policy_.retryable(result.status.code()) ||
        attempt >= policy_.max_attempts) {
      break;
    }
    const common::SimDuration backoff =
        policy_.backoff_before(attempt, decorrelate);
    if (policy_.over_deadline(total_latency, backoff)) break;
    total_latency += backoff;
    backoff_total += backoff;
  }
  result.latency = total_latency;

  client_metrics().ops.inc();
  client_metrics().attempts.add(static_cast<std::uint64_t>(attempt));
  if (attempt > 1) {
    client_metrics().retries.add(static_cast<std::uint64_t>(attempt - 1));
  }
  if (backoff_total > 0) {
    client_metrics().backoff_ns.add(static_cast<std::uint64_t>(backoff_total));
  }
  if (obs::trace_active()) {
    obs::TraceSpan span;
    span.name = cloud::op_kind_name(op).data();  // string_view over a literal
    span.cat = "cloud";
    span.tid = base ? base->tenant : 0;
    span.ts = base ? base->now : 0;
    span.dur = total_latency;
    span.detail = provider_->name();
    span.arg("attempts", attempt)
        .arg("status", static_cast<long long>(result.status.code()))
        .arg("bytes", static_cast<long long>(result.bytes_transferred))
        .arg("backoff_ns", static_cast<long long>(backoff_total));
    obs::emit(std::move(span));
  }
  return result;
}

cloud::OpResult CloudClient::create(const std::string& container) {
  const cloud::ObjectKey key{container, ""};
  return run<cloud::OpResult>(cloud::OpKind::kCreate, key,
                              [&] { return provider_->create(container); });
}

cloud::OpResult CloudClient::put(const cloud::ObjectKey& key,
                                 common::Buffer data) {
  return run<cloud::OpResult>(cloud::OpKind::kPut, key,
                              [&] { return provider_->put(key, data); });
}

cloud::GetResult CloudClient::get(const cloud::ObjectKey& key) {
  return run<cloud::GetResult>(cloud::OpKind::kGet, key,
                               [&] { return provider_->get(key); });
}

cloud::OpResult CloudClient::remove(const cloud::ObjectKey& key) {
  return run<cloud::OpResult>(cloud::OpKind::kRemove, key,
                              [&] { return provider_->remove(key); });
}

cloud::ListResult CloudClient::list(const std::string& container) {
  const cloud::ObjectKey key{container, ""};
  return run<cloud::ListResult>(cloud::OpKind::kList, key,
                                [&] { return provider_->list(container); });
}

cloud::GetResult CloudClient::get_range(const cloud::ObjectKey& key,
                                        std::uint64_t offset,
                                        std::uint64_t length) {
  return run<cloud::GetResult>(cloud::OpKind::kGet, key, [&] {
    return provider_->get_range(key, offset, length);
  });
}

cloud::OpResult CloudClient::put_range(const cloud::ObjectKey& key,
                                       std::uint64_t offset,
                                       common::Buffer data) {
  return run<cloud::OpResult>(cloud::OpKind::kPut, key, [&] {
    return provider_->put_range(key, offset, data);
  });
}

cloud::OpResult CloudClient::ensure_container(const std::string& container) {
  cloud::OpResult r = create(container);
  if (r.status.code() == common::StatusCode::kAlreadyExists) {
    r.status = common::Status::ok();
  }
  return r;
}

}  // namespace hyrd::gcs
