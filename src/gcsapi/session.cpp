#include "gcsapi/session.h"

#include <algorithm>
#include <utility>


namespace hyrd::gcs {

MultiCloudSession::MultiCloudSession(cloud::CloudRegistry& registry,
                                     RetryPolicy policy, std::size_t threads)
    : pool_(threads) {
  clients_.reserve(registry.size());
  for (const auto& p : registry.all()) {
    clients_.push_back(std::make_unique<CloudClient>(p.get(), policy));
    index_by_name_.emplace(clients_.back()->provider_name(),
                           clients_.size() - 1);
  }
}

std::size_t MultiCloudSession::index_of(
    const std::string& provider_name) const {
  const auto it = index_by_name_.find(provider_name);
  return it == index_by_name_.end() ? static_cast<std::size_t>(-1)
                                    : it->second;
}

common::Status MultiCloudSession::ensure_container_everywhere(
    const std::string& container) {
  for (auto& c : clients_) {
    auto r = c->ensure_container(container);
    if (!r.ok() &&
        r.status.code() != common::StatusCode::kUnavailable) {
      return r.status;
    }
  }
  return common::Status::ok();
}

}  // namespace hyrd::gcs
