#include "dist/scheme.h"

#include <algorithm>

#include "common/checksum.h"

namespace hyrd::dist {

std::string fragment_object_name(const std::string& path, char suffix,
                                 std::size_t index) {
  // Hash the path for a flat, provider-safe namespace; keep a readable tail.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%016llx.%c%zu",
                static_cast<unsigned long long>(
                    common::fnv1a(std::string_view(path))),
                suffix, index);
  return buf;
}

std::vector<std::size_t> order_by_expected_read_latency(
    const gcs::MultiCloudSession& session,
    const std::vector<std::size_t>& clients, std::uint64_t size) {
  std::vector<std::pair<common::SimDuration, std::size_t>> ranked;
  ranked.reserve(clients.size());
  for (std::size_t c : clients) {
    const auto& model = session.client(c).provider()->latency_model();
    ranked.emplace_back(model.expected(cloud::OpKind::kGet, size), c);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::size_t> out;
  out.reserve(ranked.size());
  for (const auto& [lat, c] : ranked) out.push_back(c);
  return out;
}

RemoveResult remove_fragments(gcs::MultiCloudSession& session,
                              const std::string& container,
                              const meta::FileMeta& meta) {
  RemoveResult result;
  gcs::AsyncBatch batch(session);
  std::vector<const std::string*> providers;  // op_index -> provider name
  for (const auto& loc : meta.locations) {
    const std::size_t idx = session.index_of(loc.provider);
    if (idx == static_cast<std::size_t>(-1)) {
      result.unreachable_providers.push_back(loc.provider);
      continue;
    }
    batch.submit(gcs::CloudOp::remove(idx, {container, loc.object_name}));
    providers.push_back(&loc.provider);
  }

  gcs::BatchStats stats;
  for (const auto& c : batch.await_all(&stats)) {
    if (!c.ok() && c.result.status.code() == common::StatusCode::kUnavailable) {
      result.unreachable_providers.push_back(*providers[c.op_index]);
    }
  }
  result.latency = stats.latency;
  result.status = common::Status::ok();
  return result;
}

}  // namespace hyrd::dist
