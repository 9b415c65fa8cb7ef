#include "core/duracloud_client.h"

#include <cassert>

namespace hyrd::core {

DuraCloudClient::DuraCloudClient(gcs::MultiCloudSession& session,
                                 std::vector<std::string> providers,
                                 std::string data_container)
    // DuraCloud keeps copies synchronized: a write completes only after
    // every copy is confirmed in turn (sequential), which is why the
    // paper sees its latency *improve* when one provider is down.
    : StorageClient(session, data_container,
                    dist::ReplicationScheme(
                        data_container,
                        dist::ReplicaWriteMode::kSequential)) {
  for (const auto& name : providers) {
    const std::size_t idx = session_.index_of(name);
    assert(idx != static_cast<std::size_t>(-1) && "unknown provider");
    targets_.push_back(idx);
  }
  (void)session_.ensure_container_everywhere(container_);
}

}  // namespace hyrd::core
