#include "core/depsky_client.h"

#include <numeric>

#include "common/checksum.h"
#include "gcsapi/async_batch.h"

namespace hyrd::core {

namespace {
/// Fails `result` when fewer than `quorum` puts landed. The client still
/// waited for the failures to time out, so it is charged the slowest reply.
bool quorum_missed(const gcs::BatchStats& stats, std::size_t quorum,
                   dist::WriteResult& result) {
  if (stats.succeeded >= quorum) return false;
  result.status = common::unavailable("quorum unreachable (" +
                                      std::to_string(stats.succeeded) + "/" +
                                      std::to_string(quorum) + " acks)");
  result.latency = stats.max_latency;
  return true;
}
}  // namespace

DepSkyClient::DepSkyClient(gcs::MultiCloudSession& session,
                           std::size_t faults_tolerated,
                           std::string data_container)
    // The replication scheme serves reads and recovery; writes are the
    // quorum hooks below.
    : StorageClient(session, data_container,
                    dist::ReplicationScheme(data_container)),
      quorum_(session.client_count() - faults_tolerated) {
  targets_.resize(session_.client_count());
  std::iota(targets_.begin(), targets_.end(), 0);
  (void)session_.ensure_container_everywhere(container_);
}

dist::WriteResult DepSkyClient::write_object(
    const std::string& path, common::Buffer data,
    std::vector<std::string>& unreachable) {
  dist::WriteResult result;

  // DepSky's quorum write is the engine's await_quorum verbatim: a
  // write completes at the quorum_-th fastest acknowledgment, and every
  // put still runs to completion so failures are observed and logged.
  gcs::AsyncBatch batch(session_);
  std::vector<cloud::ObjectKey> keys;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    keys.push_back({container_, dist::fragment_object_name(path, 'q', i)});
    batch.submit(gcs::CloudOp::put(targets_[i], keys.back(), data));
  }
  gcs::BatchStats stats;
  auto puts = batch.await_quorum(quorum_, &stats);

  if (quorum_missed(stats, quorum_, result)) return result;
  result.latency = stats.latency;

  meta::FileMeta m;
  m.path = path;
  m.size = data.size();
  m.redundancy = meta::RedundancyKind::kReplicated;
  m.crc = common::crc32c(data);
  for (std::size_t i = 0; i < puts.size(); ++i) {
    const std::string& provider = session_.client(targets_[i]).provider_name();
    m.locations.push_back({provider, keys[i].name});
    if (!puts[i].ok()) unreachable.push_back(provider);
  }
  result.status = common::Status::ok();
  result.meta = std::move(m);
  return result;
}

dist::WriteResult DepSkyClient::update_object(
    const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
    std::vector<std::string>& unreachable) {
  if (offset == 0 && data.size() == m.size) {
    return write_object(m.path, common::Buffer::borrow(data), unreachable);
  }
  dist::WriteResult result;
  // Quorum block write, same engine path as write_object.
  gcs::AsyncBatch batch(session_);
  std::vector<const meta::FragmentLocation*> locs;
  for (const auto& loc : m.locations) {
    const std::size_t idx = session_.index_of(loc.provider);
    if (idx == static_cast<std::size_t>(-1)) continue;
    batch.submit(gcs::CloudOp::put_range(idx, {container_, loc.object_name},
                                         offset, data));
    locs.push_back(&loc);
  }
  gcs::BatchStats stats;
  auto puts = batch.await_quorum(quorum_, &stats);
  if (quorum_missed(stats, quorum_, result)) return result;
  result.latency = stats.latency;
  result.status = common::Status::ok();
  result.meta = m;
  result.meta.crc = 0;
  for (std::size_t i = 0; i < puts.size(); ++i) {
    if (!puts[i].ok()) unreachable.push_back(locs[i]->provider);
  }
  return result;
}

}  // namespace hyrd::core
