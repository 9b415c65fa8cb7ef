// DepSkyClient: a simplified DepSky baseline (Bessani et al., EuroSys'11)
// — the fourth related system in the paper's Table I.
//
// DepSky replicates data on every cloud and uses Byzantine quorums: with
// n = 4 clouds and f = 1 tolerated faults, a write completes when
// n - f = 3 clouds acknowledge, and a read is served from any verified
// replica. We model the quorum-latency semantics (a write costs the
// 3rd-fastest acknowledgment, not the slowest) and full 4x replication's
// storage bill; the cryptographic machinery (signatures, secret sharing)
// is out of scope — Table I's axes are redundancy, recovery, performance
// and cost, all of which this model reproduces.
#pragma once

#include "core/storage_client.h"

namespace hyrd::core {

class DepSkyClient final : public StorageClient {
 public:
  explicit DepSkyClient(gcs::MultiCloudSession& session,
                        std::size_t faults_tolerated = 1,
                        std::string data_container = "depsky-data");

  [[nodiscard]] std::string name() const override { return "DepSky"; }
  [[nodiscard]] std::size_t quorum() const { return quorum_; }

 protected:
  /// Quorum write of a full replica to every cloud.
  dist::WriteResult write_object(
      const std::string& path, common::Buffer data,
      std::vector<std::string>& unreachable) override;
  /// Quorum block write; a whole-object overwrite is a write_object.
  dist::WriteResult update_object(
      const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
      std::vector<std::string>& unreachable) override;

 private:
  std::size_t quorum_;
};

}  // namespace hyrd::core
