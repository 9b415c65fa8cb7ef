#include "core/racs_client.h"

#include "common/checksum.h"

namespace hyrd::core {

RACSClient::RACSClient(gcs::MultiCloudSession& session,
                       erasure::StripeGeometry geometry,
                       std::string data_container)
    // RACS has no evaluator tracking provider availability; degraded
    // reads discover the outage per request (two-round reconstruction).
    : StorageClientBase(session, data_container, std::nullopt,
                        dist::ErasureScheme(data_container, geometry,
                                            /*outage_aware=*/false)) {
  (void)session_.ensure_container_everywhere(container_);
}

std::vector<std::size_t> RACSClient::placement(const std::string& path) const {
  std::vector<std::size_t> slots;
  if (const auto prev = store_.lookup(path)) {
    for (const auto& loc : prev->locations) {
      slots.push_back(session_.index_of(loc.provider));
    }
    return slots;
  }
  const std::size_t n = session_.client_count();
  const std::size_t start =
      static_cast<std::size_t>(common::fnv1a(std::string_view(path))) % n;
  slots.reserve(geometry().total());
  for (std::size_t i = 0; i < geometry().total(); ++i) {
    slots.push_back((start + i) % n);
  }
  return slots;
}

}  // namespace hyrd::core
