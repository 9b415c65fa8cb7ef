#include "core/single_client.h"

#include <cassert>

namespace hyrd::core {

SingleCloudClient::SingleCloudClient(gcs::MultiCloudSession& session,
                                     std::string provider,
                                     std::string data_container)
    // Degenerate level-1 replication.
    : StorageClientBase(session, data_container,
                        dist::ReplicationScheme(data_container)),
      provider_(std::move(provider)) {
  const std::size_t idx = session_.index_of(provider_);
  assert(idx != static_cast<std::size_t>(-1) && "unknown provider");
  targets_ = {idx};
  (void)session_.client(idx).ensure_container(container_);
}

}  // namespace hyrd::core
