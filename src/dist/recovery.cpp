#include "dist/recovery.h"

#include <algorithm>

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
  const auto pending = log_.pending_for(provider);
  std::uint64_t max_seq = 0;

  for (const auto& rec : pending) {
    max_seq = std::max(max_seq, rec.seq);

    if (rec.action == meta::LogAction::kRemove) {
      auto r = client.remove({rec.container, rec.object_name});
      report.latency += r.latency;
      // NotFound is fine: the object never reached the provider.
      if (r.ok() || r.status.code() == common::StatusCode::kNotFound) {
        ++report.removes_applied;
      } else {
        report.status = r.status;
        return report;
      }
      continue;
    }

    // Synthetic objects (metadata-directory blocks) are regenerated from
    // client state rather than fetched from surviving fragments.
    if (regenerator_) {
      if (auto bytes = regenerator_(rec.path); bytes.has_value()) {
        auto r = client.put({rec.container, rec.object_name}, *bytes);
        report.latency += r.latency;
        if (!r.ok()) {
          report.status = r.status;
          return report;
        }
        report.bytes_pushed += bytes->size();
        ++report.objects_repushed;
        continue;
      }
    }

    auto meta = store_.lookup(rec.path);
    if (!meta.has_value()) {
      // File was deleted after the logged write; drop the stale object.
      auto r = client.remove({rec.container, rec.object_name});
      report.latency += r.latency;
      ++report.skipped;
      continue;
    }

    const bool replicated =
        meta->redundancy == meta::RedundancyKind::kReplicated;
    if (replicated ? replication_ == nullptr : erasure_ == nullptr) {
      report.status = common::failed_precondition(
          "no scheme to rebuild " + rec.path + " with");
      return report;
    }
    if (replicated) {
      auto whole = replication_->read(session_, *meta);
      report.latency += whole.latency;
      if (!whole.status.is_ok()) {
        report.status = whole.status;
        return report;
      }
      auto r = client.put({rec.container, rec.object_name}, whole.data);
      report.latency += r.latency;
      if (!r.ok()) {
        report.status = r.status;
        return report;
      }
      report.bytes_pushed += whole.data.size();
      ++report.objects_repushed;
    } else {
      common::SimDuration rebuild_latency = 0;
      auto fragments = erasure_->rebuild_fragments_for(
          session_, *meta, provider, &rebuild_latency);
      report.latency += rebuild_latency;
      if (!fragments.is_ok()) {
        report.status = fragments.status();
        return report;
      }
      for (auto& [object_name, bytes] : fragments.value()) {
        auto r = client.put({rec.container, object_name}, bytes);
        report.latency += r.latency;
        if (!r.ok()) {
          report.status = r.status;
          return report;
        }
        report.bytes_pushed += bytes.size();
        ++report.objects_repushed;
      }
    }
  }

  log_.truncate(provider, max_seq);
  report.status = common::Status::ok();
  return report;
}

}  // namespace hyrd::dist
