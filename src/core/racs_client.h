// RACSClient: the RACS baseline (Abu-Libdeh et al., SoCC'10) — RAID-like
// erasure striping of *all* data, regardless of size or type, across every
// provider. Parity placement rotates per object (classic RAID5), derived
// deterministically from the path hash so overwrites reuse their slots.
//
// This is the scheme the paper's §II-B critiques: small updates pay the
// read-modify-write penalty, and reading metadata or a small file during
// an outage touches every surviving provider to reconstruct.
#pragma once

#include "core/storage_client.h"
#include "erasure/striper.h"

namespace hyrd::core {

class RACSClient final : public StorageClient {
 public:
  explicit RACSClient(gcs::MultiCloudSession& session,
                      erasure::StripeGeometry geometry = {.k = 3, .m = 1},
                      std::string data_container = "racs-data");

  [[nodiscard]] std::string name() const override { return "RACS"; }

  [[nodiscard]] const erasure::StripeGeometry& geometry() const {
    return erasure_->geometry();
  }

  /// First-k stripe reads (see dist/erasure_scheme.h).
  void set_read_strategy(dist::ErasureReadStrategy s) {
    erasure_->set_read_strategy(s);
  }

 protected:
  /// An overwrite reuses the previous slots so fragments stay put; a new
  /// object starts its rotation at hash(path) mod n. Directory blocks are
  /// striped like any other object.
  [[nodiscard]] std::vector<std::size_t> placement(
      const std::string& path) const override;
};

}  // namespace hyrd::core
