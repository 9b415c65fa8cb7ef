#include "dist/recovery.h"

namespace hyrd::dist {

RecoveryReport RecoveryManager::resync(const std::string& provider) {
  RecoveryReport report;
  const std::size_t client_idx = session_.index_of(provider);
  if (client_idx == static_cast<std::size_t>(-1)) {
    report.status = common::invalid_argument("unknown provider: " + provider);
    return report;
  }
  if (!session_.client(client_idx).provider()->online()) {
    report.status = common::failed_precondition(provider + " still offline");
    return report;
  }

  auto& client = session_.client(client_idx);

  // Applies one record; a non-OK status stops the replay at that record.
  const auto apply = [&](const meta::LogRecord& rec) -> common::Status {
    if (rec.action == meta::LogAction::kRemove) {
      auto r = client.remove({rec.container, rec.object_name});
      report.latency += r.latency;
      // NotFound is fine: the object never reached the provider.
      if (!r.ok() && r.status.code() != common::StatusCode::kNotFound) {
        return r.status;
      }
      ++report.removes_applied;
      return common::Status::ok();
    }

    // Synthetic objects (metadata-directory blocks) are regenerated from
    // client state rather than fetched from surviving fragments.
    if (regenerator_) {
      if (auto bytes = regenerator_(rec.path); bytes.has_value()) {
        auto r = client.put({rec.container, rec.object_name}, *bytes);
        report.latency += r.latency;
        if (!r.ok()) return r.status;
        report.bytes_pushed += bytes->size();
        ++report.objects_repushed;
        return common::Status::ok();
      }
    }

    auto meta = store_.lookup(rec.path);
    if (!meta.has_value()) {
      // File was deleted after the logged write; drop the stale object.
      auto r = client.remove({rec.container, rec.object_name});
      report.latency += r.latency;
      ++report.skipped;
      return common::Status::ok();
    }

    const bool replicated =
        meta->redundancy == meta::RedundancyKind::kReplicated;
    if (replicated ? replication_ == nullptr : erasure_ == nullptr) {
      return common::failed_precondition("no scheme to rebuild " + rec.path +
                                         " with");
    }
    if (replicated) {
      auto whole = replication_->read(session_, *meta);
      report.latency += whole.latency;
      if (!whole.status.is_ok()) return whole.status;
      auto r = client.put({rec.container, rec.object_name}, whole.data);
      report.latency += r.latency;
      if (!r.ok()) return r.status;
      report.bytes_pushed += whole.data.size();
      ++report.objects_repushed;
      return common::Status::ok();
    }
    common::SimDuration rebuild_latency = 0;
    auto fragments = erasure_->rebuild_fragments_for(session_, *meta, provider,
                                                     &rebuild_latency);
    report.latency += rebuild_latency;
    if (!fragments.is_ok()) return fragments.status();
    for (auto& [object_name, bytes] : fragments.value()) {
      auto r = client.put({rec.container, object_name}, bytes);
      report.latency += r.latency;
      if (!r.ok()) return r.status;
      report.bytes_pushed += bytes.size();
      ++report.objects_repushed;
    }
    return common::Status::ok();
  };

  // Records are in sequence order, so everything through `applied` is done
  // (or superseded by a later record). Truncating through it on error as
  // well as on success means a retry replays only from the failed record.
  std::uint64_t applied = 0;
  report.status = common::Status::ok();
  for (const auto& rec : log_.pending_for(provider)) {
    report.status = apply(rec);
    if (!report.status.is_ok()) break;
    applied = rec.seq;
  }
  if (applied > 0) log_.truncate(provider, applied);
  return report;
}

}  // namespace hyrd::dist
