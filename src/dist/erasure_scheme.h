// ErasureScheme: striped erasure-coded distribution (RAID5/RS) across
// providers — the layout RACS applies to everything and HyRD applies to
// large files.
//
// Read path economics (the heart of the paper's §II-B analysis):
//  * normal read      — k parallel sub-transfers of size/k: latency is the
//    slowest provider's transfer of 1/k of the object (parallelism win);
//  * degraded read    — any k of k+m fragments, reconstruct (extra traffic);
//  * small update     — read-modify-write: (1+m) reads + (1+m) writes
//    (2R + 2W for RAID5), the write-amplification cost HyRD avoids by
//    replicating small files.
#pragma once

#include "dist/scheme.h"
#include "erasure/striper.h"

namespace hyrd::dist {

/// How a stripe read picks its k fragments.
///
/// kPreferredK (default) issues exactly k requests to the preferred (data)
/// slots and pays a second round only on surprises — the paper's cost
/// model: a normal read bills exactly k GETs. kFastestK requests all
/// reachable fragments and completes at the k-th fastest usable response —
/// latency becomes the k-th order statistic of n instead of the max of k,
/// at the price of up to m extra GET requests.
enum class ErasureReadStrategy { kPreferredK, kFastestK };

class ErasureScheme {
 public:
  /// `outage_aware`: when true, reads consult provider availability and
  /// fetch k reachable fragments in a single parallel round (HyRD's Cost &
  /// Performance Evaluator tracks outage state). When false, reads probe
  /// the data fragments first and only then fetch parity — the two-round
  /// degraded path a tracker-less client (RACS) pays during an outage.
  ErasureScheme(std::string container, erasure::StripeGeometry geometry,
                bool outage_aware = true)
      : container_(std::move(container)),
        striper_(geometry),
        outage_aware_(outage_aware) {}

  [[nodiscard]] const std::string& container() const { return container_; }
  [[nodiscard]] const erasure::StripeGeometry& geometry() const {
    return striper_.geometry();
  }

  void set_read_strategy(ErasureReadStrategy s) { read_strategy_ = s; }

  /// Stripes `data` into k+m fragments and puts fragment i on
  /// shard_clients[i], all in parallel. Requires exactly k+m targets.
  /// Succeeds if at least k fragments land (the stripe is then decodable);
  /// unreachable providers are reported for update logging.
  ///
  /// The fragments and their CRCs come from Striper::encode on the session
  /// pool; full data fragments are O(1) slices of `data`, the rest slices
  /// of one side arena.
  WriteResult write(gcs::MultiCloudSession& session, const std::string& path,
                    common::Buffer data,
                    const std::vector<std::size_t>& shard_clients,
                    std::vector<std::string>* unreachable = nullptr) const;

  /// Legacy span adapter (no copy: the write is synchronous, so a borrowed
  /// view is safe for its duration).
  WriteResult write(gcs::MultiCloudSession& session, const std::string& path,
                    common::ByteSpan data,
                    const std::vector<std::size_t>& shard_clients,
                    std::vector<std::string>* unreachable = nullptr) const {
    return write(session, path, common::Buffer::borrow(data), shard_clients,
                 unreachable);
  }

  /// Normal path: parallel-fetch the k data fragments and reassemble.
  /// Degraded path (some fragment unreachable): fetch survivors including
  /// parity and reconstruct.
  ReadResult read(gcs::MultiCloudSession& session,
                  const meta::FileMeta& meta) const;

  /// In-place range update. If the range lies within a single data
  /// fragment, uses the read-modify-write path ((1+m) reads, (1+m)
  /// writes). Otherwise falls back to read-whole + re-stripe. Returns the
  /// updated meta. `rmw_used` (optional) reports which path ran.
  WriteResult update_range(gcs::MultiCloudSession& session,
                           const meta::FileMeta& meta, std::uint64_t offset,
                           common::ByteSpan new_bytes, bool* rmw_used = nullptr,
                           std::vector<std::string>* unreachable = nullptr) const;

  /// Removes all fragments concurrently.
  RemoveResult remove(gcs::MultiCloudSession& session,
                      const meta::FileMeta& meta) const;

  /// Rebuilds the fragments of `meta` that live on `provider` from the
  /// surviving fragments (degraded fetch + re-encode). Returns pairs of
  /// (object_name, fragment buffer) ready to be pushed back.
  common::Result<std::vector<std::pair<std::string, common::Buffer>>>
  rebuild_fragments_for(gcs::MultiCloudSession& session,
                        const meta::FileMeta& meta,
                        const std::string& provider,
                        common::SimDuration* latency = nullptr) const;

 private:
  std::string container_;
  erasure::Striper striper_;
  bool outage_aware_;
  ErasureReadStrategy read_strategy_ = ErasureReadStrategy::kPreferredK;
};

}  // namespace hyrd::dist
