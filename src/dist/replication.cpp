#include "dist/replication.h"

#include <algorithm>
#include <optional>

#include "common/checksum.h"
#include "common/virtual_time.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyrd::dist {

namespace {

obs::Counter& hedge_counter() {
  static obs::Counter c = obs::MetricsRegistry::global().counter("scheme.hedges");
  return c;
}

/// Scheme-level span stamped with the issuing tenant's virtual context
/// (tid 0 / ts 0 for plain non-sim traffic).
void emit_scheme_span(const char* name, common::SimDuration dur,
                      std::initializer_list<obs::TraceSpan::Arg> args) {
  if (!obs::trace_active()) return;
  obs::TraceSpan span;
  span.name = name;
  span.cat = "scheme";
  if (const auto base = common::VirtualScope::snapshot()) {
    span.tid = base->tenant;
    span.ts = base->now;
  }
  span.dur = dur;
  for (const auto& a : args) span.arg(a.key, a.value);
  obs::emit(std::move(span));
}

}  // namespace

WriteResult ReplicationScheme::write(
    gcs::MultiCloudSession& session, const std::string& path,
    common::Buffer data, const std::vector<std::size_t>& replica_clients,
    std::vector<std::string>* unreachable) const {
  WriteResult result;
  if (replica_clients.empty()) {
    result.status = common::invalid_argument("no replica targets");
    return result;
  }

  std::vector<cloud::ObjectKey> keys;
  keys.reserve(replica_clients.size());
  for (std::size_t i = 0; i < replica_clients.size(); ++i) {
    keys.push_back({container_, fragment_object_name(path, 'r', i)});
  }

  std::vector<cloud::OpResult> results;
  results.reserve(replica_clients.size());
  if (mode_ == ReplicaWriteMode::kParallel) {
    gcs::AsyncBatch batch(session);
    for (std::size_t i = 0; i < replica_clients.size(); ++i) {
      batch.submit(gcs::CloudOp::put(replica_clients[i], keys[i], data));
    }
    gcs::BatchStats stats;
    auto completions = batch.await_all(&stats);
    result.latency = stats.latency;
    for (auto& c : completions) {
      results.push_back(static_cast<cloud::OpResult&&>(std::move(c.result)));
    }
  } else {
    // Sequential synchronization: each copy is confirmed in turn, so the
    // next put is submitted at the previous put's virtual completion and
    // the final arrival is the legacy sum of latencies. Unreachable
    // targets fail fast and are skipped.
    gcs::AsyncBatch batch(session);
    common::SimDuration offset = 0;
    for (std::size_t i = 0; i < replica_clients.size(); ++i) {
      auto& c = batch.completion(batch.submit(
          gcs::CloudOp::put(replica_clients[i], keys[i], data, offset)));
      offset = c.arrival;
      results.push_back(static_cast<cloud::OpResult&&>(std::move(c.result)));
    }
    result.latency = offset;
  }

  std::size_t landed = 0;
  meta::FileMeta m;
  m.path = path;
  m.size = data.size();
  m.redundancy = meta::RedundancyKind::kReplicated;
  m.crc = common::crc32c(data);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string& provider =
        session.client(replica_clients[i]).provider_name();
    if (results[i].ok()) {
      ++landed;
    } else if (unreachable != nullptr) {
      unreachable->push_back(provider);
    }
    // Record every intended location; unreachable ones are the caller's
    // update-log entries and will be consistency-updated on recovery.
    m.locations.push_back({provider, keys[i].name});
  }

  if (landed == 0) {
    result.status = common::unavailable("no replica target reachable");
    return result;
  }
  result.status = common::Status::ok();
  result.meta = std::move(m);
  emit_scheme_span("replicated_write", result.latency,
                   {{"replicas", static_cast<long long>(replica_clients.size())},
                    {"landed", static_cast<long long>(landed)}});
  return result;
}

std::vector<ReplicationScheme::GroupWriteResult> ReplicationScheme::write_many(
    gcs::MultiCloudSession& session, std::vector<GroupWrite> items,
    const std::vector<std::size_t>& replica_clients,
    common::SimDuration* batch_latency) const {
  std::vector<GroupWriteResult> out(items.size());
  if (items.empty()) return out;
  if (replica_clients.empty()) {
    for (auto& o : out) {
      o.result.status = common::invalid_argument("no replica targets");
    }
    return out;
  }
  if (mode_ != ReplicaWriteMode::kParallel) {
    // Sequential confirmation chains cannot overlap a group; keep the
    // per-item semantics instead.
    for (std::size_t i = 0; i < items.size(); ++i) {
      out[i].result = write(session, items[i].path, std::move(items[i].data),
                            replica_clients, &out[i].unreachable);
    }
    return out;
  }

  const std::size_t replicas = replica_clients.size();
  std::vector<std::vector<cloud::ObjectKey>> keys(items.size());
  gcs::AsyncBatch batch(session);
  for (std::size_t i = 0; i < items.size(); ++i) {
    keys[i].reserve(replicas);
    for (std::size_t r = 0; r < replicas; ++r) {
      keys[i].push_back({container_, fragment_object_name(items[i].path, 'r', r)});
      // op_index = i * replicas + r: one flat submission order.
      batch.submit(
          gcs::CloudOp::put(replica_clients[r], keys[i][r], items[i].data));
    }
  }
  gcs::BatchStats stats;
  auto completions = batch.await_all(&stats);
  if (batch_latency != nullptr) *batch_latency = stats.latency;

  // Demux completions back to their entries.
  struct OpOutcome {
    bool ok = false;
    common::SimDuration arrival = 0;
  };
  std::vector<std::vector<OpOutcome>> per_item(items.size(),
                                               std::vector<OpOutcome>(replicas));
  for (const auto& c : completions) {
    const std::size_t item = c.op_index / replicas;
    const std::size_t rep = c.op_index % replicas;
    per_item[item][rep] = {c.ok(), c.arrival};
  }

  for (std::size_t i = 0; i < items.size(); ++i) {
    auto& o = out[i];
    meta::FileMeta m;
    m.path = items[i].path;
    m.size = items[i].data.size();
    m.redundancy = meta::RedundancyKind::kReplicated;
    m.crc = common::crc32c(items[i].data);

    std::size_t landed = 0;
    common::SimDuration all_arrival = 0;
    for (std::size_t r = 0; r < replicas; ++r) {
      const std::string& provider =
          session.client(replica_clients[r]).provider_name();
      all_arrival = std::max(all_arrival, per_item[i][r].arrival);
      if (per_item[i][r].ok) {
        ++landed;
      } else {
        o.unreachable.push_back(provider);
      }
      m.locations.push_back({provider, keys[i][r].name});
    }
    // Per-entry latency is its own slowest replica, mirroring write().
    o.result.latency = all_arrival;
    if (landed == 0) {
      o.result.status = common::unavailable("no replica target reachable");
      continue;
    }
    o.result.status = common::Status::ok();
    o.result.meta = std::move(m);
  }
  emit_scheme_span(
      "replicated_group_write", stats.latency,
      {{"objects", static_cast<long long>(items.size())},
       {"replicas", static_cast<long long>(replicas)}});
  return out;
}

ReadResult ReplicationScheme::read(gcs::MultiCloudSession& session,
                                   const meta::FileMeta& meta) const {
  ReadResult result;
  if (meta.locations.empty()) {
    result.status = common::invalid_argument("meta has no replica locations");
    return result;
  }

  // Providers known to be in outage are skipped outright (the client has
  // already seen their connections refused); surprise failures below
  // still fail over replica by replica.
  std::vector<std::size_t> clients;
  clients.reserve(meta.locations.size());
  for (const auto& loc : meta.locations) {
    const std::size_t idx = session.index_of(loc.provider);
    if (idx == static_cast<std::size_t>(-1)) continue;
    if (!session.client(idx).provider()->online()) {
      result.degraded = true;
      continue;
    }
    clients.push_back(idx);
  }
  const auto order =
      order_by_expected_read_latency(session, clients, meta.size);

  const auto loc_for_client =
      [&](std::size_t client_idx) -> const meta::FragmentLocation* {
    const auto& provider = session.client(client_idx).provider_name();
    for (const auto& l : meta.locations) {
      if (l.provider == provider) return &l;
    }
    return nullptr;
  };

  gcs::AsyncBatch batch(session);
  std::vector<bool> op_is_hedge;
  std::size_t cursor = 0;  // next candidate in `order`
  // Submits the next candidate replica; returns its op_index, or nullopt
  // when every candidate has been tried.
  const auto submit_next = [&](common::SimDuration start, bool is_hedge)
      -> std::optional<std::size_t> {
    while (cursor < order.size()) {
      const std::size_t client_idx = order[cursor];
      ++cursor;
      const auto* loc = loc_for_client(client_idx);
      if (loc == nullptr) continue;
      op_is_hedge.push_back(is_hedge);
      if (is_hedge) hedge_counter().inc();
      return batch.submit(
          gcs::CloudOp::get(client_idx, {container_, loc->object_name}, start));
    }
    return std::nullopt;
  };

  bool first_attempt = !result.degraded;
  std::optional<std::size_t> op = submit_next(0, false);
  if (!op.has_value()) {
    result.status = common::unavailable("no replica readable for " + meta.path);
    return result;
  }

  // A hedge fires at delay_factor × the primary's *expected* latency: the
  // client plans against the advertised model, not the (unknowable ahead
  // of time) sampled response.
  const bool may_hedge = hedge_.enabled && order.size() > 1;
  const common::SimDuration hedge_delay =
      may_hedge ? static_cast<common::SimDuration>(
                      hedge_.delay_factor *
                      static_cast<double>(
                          session.client(order[0])
                              .provider()
                              ->latency_model()
                              .expected(cloud::OpKind::kGet, meta.size)))
                : 0;

  bool hedge_attempted = false;
  bool have_usable = false;
  common::Buffer best_data;
  common::SimDuration best_arrival = 0;
  common::SimDuration worst_arrival = 0;  // max arrival seen

  // Each op has resolved by the time submit returns, so every step reads
  // the op it just submitted and decides whether another one goes out.
  while (op.has_value()) {
    gcs::CloudCompletion& c = batch.completion(*op);
    const bool is_hedge = op_is_hedge[*op];
    const common::SimDuration arrival = c.arrival;
    op.reset();
    worst_arrival = std::max(worst_arrival, arrival);

    bool usable = c.ok();
    if (usable && meta.crc != 0 && common::crc32c(c.result.data) != meta.crc) {
      // Stale or corrupt replica (e.g. provider returned from outage
      // before consistency update); treat as a failure and move on.
      usable = false;
    }

    if (usable) {
      if (!have_usable || arrival < best_arrival) {
        best_arrival = arrival;
        best_data = std::move(c.result.data);
      }
      have_usable = true;
      // Virtually slow primary (brownout): the hedge would have fired at
      // hedge_delay, and whichever response arrives first in virtual time
      // wins.
      if (may_hedge && !hedge_attempted && !is_hedge &&
          arrival > hedge_delay) {
        hedge_attempted = true;
        op = submit_next(hedge_delay, true);
      }
      continue;
    }

    // Failure. Legacy failover: try the next replica in latency order,
    // submitted at this failure's virtual arrival so the chain sums.
    result.degraded = true;
    if (!is_hedge) first_attempt = false;
    if (!have_usable) op = submit_next(arrival, false);
  }

  if (!have_usable) {
    result.status =
        common::unavailable("no replica readable for " + meta.path);
    result.latency = worst_arrival;
    return result;
  }

  result.status = common::Status::ok();
  result.data = std::move(best_data);
  result.latency = best_arrival;
  result.saved =
      worst_arrival > best_arrival ? worst_arrival - best_arrival : 0;
  result.degraded = result.degraded || !first_attempt;
  emit_scheme_span("replicated_read", result.latency,
                   {{"hedged", hedge_attempted ? 1 : 0},
                    {"degraded", result.degraded ? 1 : 0},
                    {"saved_ns", static_cast<long long>(result.saved)}});
  return result;
}

WriteResult ReplicationScheme::update_range(
    gcs::MultiCloudSession& session, const meta::FileMeta& meta,
    std::uint64_t offset, common::ByteSpan data,
    std::vector<std::string>* unreachable) const {
  WriteResult result;
  if (!common::range_within(offset, data.size(), meta.size)) {
    result.status = common::invalid_argument("update range exceeds file size");
    return result;
  }

  std::vector<std::size_t> targets;
  std::vector<const meta::FragmentLocation*> locs;
  for (const auto& loc : meta.locations) {
    const std::size_t idx = session.index_of(loc.provider);
    if (idx == static_cast<std::size_t>(-1)) continue;
    targets.push_back(idx);
    locs.push_back(&loc);
  }

  std::vector<cloud::OpResult> results;
  results.reserve(targets.size());
  if (mode_ == ReplicaWriteMode::kParallel) {
    gcs::AsyncBatch batch(session);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      batch.submit(gcs::CloudOp::put_range(
          targets[i], {container_, locs[i]->object_name}, offset, data));
    }
    gcs::BatchStats stats;
    auto completions = batch.await_all(&stats);
    result.latency = stats.latency;
    for (auto& c : completions) {
      results.push_back(static_cast<cloud::OpResult&&>(std::move(c.result)));
    }
  } else {
    gcs::AsyncBatch batch(session);
    common::SimDuration chain = 0;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      auto& c = batch.completion(batch.submit(gcs::CloudOp::put_range(
          targets[i], {container_, locs[i]->object_name}, offset, data,
          chain)));
      chain = c.arrival;
      results.push_back(static_cast<cloud::OpResult&&>(std::move(c.result)));
    }
    result.latency = chain;
  }

  std::size_t landed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok()) {
      ++landed;
    } else if (unreachable != nullptr) {
      unreachable->push_back(locs[i]->provider);
    }
  }
  if (landed == 0) {
    result.status = common::unavailable("no replica target reachable");
    return result;
  }
  result.status = common::Status::ok();
  result.meta = meta;
  result.meta.version = meta.version + 1;
  result.meta.crc = 0;
  return result;
}

RemoveResult ReplicationScheme::remove(gcs::MultiCloudSession& session,
                                       const meta::FileMeta& meta) const {
  return remove_fragments(session, container_, meta);
}

}  // namespace hyrd::dist
