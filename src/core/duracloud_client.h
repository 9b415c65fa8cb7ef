// DuraCloudClient: the DuraCloud baseline — full replication of every
// object (any size, plus metadata blocks) across a fixed pair of
// providers, kept synchronized. Simple and outage-proof, but it doubles
// storage and bandwidth for large files, which is exactly the cost the
// paper's Fig. 4 shows dominating.
#pragma once

#include "core/storage_client.h"

namespace hyrd::core {

class DuraCloudClient final : public StorageClientBase {
 public:
  /// `providers` is the replication pair (or more). Defaults to the two
  /// performance-oriented providers of the standard fleet.
  explicit DuraCloudClient(
      gcs::MultiCloudSession& session,
      std::vector<std::string> providers = {"WindowsAzure", "Aliyun"},
      std::string data_container = "duracloud-data");

  [[nodiscard]] std::string name() const override { return "DuraCloud"; }

  [[nodiscard]] const std::vector<std::size_t>& replica_targets() const {
    return targets_;
  }

  /// Hedged replica reads (see dist/replication.h).
  void set_hedge(dist::HedgePolicy p) { replication_->set_hedge(p); }
};

}  // namespace hyrd::core
