// SingleCloudClient: everything on one provider, no redundancy — the
// baseline Fig. 6 normalizes against (Amazon S3) and the configuration
// whose outage behaviour motivates the whole paper: when the provider is
// down, the service is simply unavailable.
#pragma once

#include "core/storage_client.h"

namespace hyrd::core {

class SingleCloudClient final : public StorageClientBase {
 public:
  SingleCloudClient(gcs::MultiCloudSession& session, std::string provider,
                    std::string data_container = "single-data");

  [[nodiscard]] std::string name() const override {
    return "Single(" + provider_ + ")";
  }
  [[nodiscard]] const std::string& provider() const { return provider_; }

 private:
  std::string provider_;
};

}  // namespace hyrd::core
