// NCCloudClient: the NCCloud baseline (Hu et al., FAST'12) — the last of
// the paper's Table I systems. All data is F-MSR(4,2) coded across the
// four clouds: same 2x storage as RAID-style striping at k=2, but a
// failed/outaged cloud is regenerated by downloading only one chunk from
// each survivor (0.75x the object size instead of 1.0x).
//
// Like the real NCCloud proxy, the coefficient matrices live client-side;
// small updates have no cheap path (any byte change re-encodes the whole
// object — Table I: "Low for small updates").
#pragma once

#include <mutex>
#include <unordered_map>

#include "core/storage_client.h"
#include "erasure/fmsr.h"

namespace hyrd::core {

class NCCloudClient final : public StorageClient {
 public:
  explicit NCCloudClient(gcs::MultiCloudSession& session,
                         std::uint64_t seed = 2012,
                         std::string data_container = "nccloud-data");

  [[nodiscard]] std::string name() const override { return "NCCloud"; }
  [[nodiscard]] const erasure::Fmsr& code() const { return code_; }

  /// Consistency update after an outage: every file whose chunks on
  /// `provider` are stale or missing is functionally repaired —
  /// downloading one chunk from each surviving cloud and uploading the
  /// regenerated pair.
  common::SimDuration on_provider_restored(const std::string& provider) override;

 protected:
  /// F-MSR encode; chunk c goes to node c / chunks_per_node.
  dist::WriteResult write_object(
      const std::string& path, common::Buffer data,
      std::vector<std::string>& unreachable) override;
  /// Decodes from the first healthy node pair in expected-latency order.
  dist::ReadResult read_object(const meta::FileMeta& m) override;
  /// No partial-update path: get, patch, re-encode the whole object.
  dist::WriteResult update_object(
      const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
      std::vector<std::string>& unreachable) override;
  /// Also drops the object's coefficient table.
  dist::RemoveResult remove_object(const meta::FileMeta& m) override;
  /// Directory blocks are small and latency-critical; NCCloud's proxy
  /// keeps them replicated on every cloud.
  common::SimDuration persist_metadata(const std::string& dir) override;

 private:
  [[nodiscard]] std::string chunk_name(const std::string& path,
                                       std::size_t index) const;
  /// Regenerates `node`'s chunks of `path` from one chunk per survivor
  /// and pushes them, adding the virtual time to `latency`. The new CRCs
  /// and coefficients are committed only after every push landed.
  common::Status repair_node(const std::string& path, std::size_t node,
                             common::SimDuration& latency);

  erasure::Fmsr code_;
  common::Xoshiro256 rng_;
  mutable std::mutex coeff_mu_;
  std::unordered_map<std::string, erasure::Matrix> coefficients_;
};

}  // namespace hyrd::core
