// ReplicationScheme: k-way full replication across providers.
//
// The paper uses this for file-system metadata and small files (replication
// level 2 by default, configurable §III-C) and it is the whole of the
// DuraCloud baseline. Writes fan out in parallel (latency = slowest
// replica); reads go to the expected-fastest online replica and fail over.
#pragma once

#include "dist/scheme.h"

namespace hyrd::dist {

/// How replicas are written. kParallel fans out and completes with the
/// slowest replica (HyRD's dispatcher). kSequential pushes copies one
/// after another — the DuraCloud synchronization model, where the write
/// returns only after every copy is confirmed in turn; this is why the
/// paper observes DuraCloud *improving* during an outage (the unreachable
/// copy's write is skipped, "no double writes or updates are performed").
enum class ReplicaWriteMode { kParallel, kSequential };

/// Hedged-read policy. A replicated read goes to the expected-fastest
/// online replica first; a hedge fires a second request when the primary's
/// response costs more than `delay_factor` × its expected latency (a
/// brownout: reachable but degraded). The hedge is charged as fired at
/// that virtual threshold, and the read completes at the earliest usable
/// arrival. The default is deliberately conservative: under the baseline
/// jitter model (lognormal sigma 0.08) a 3x-expected response never
/// occurs, so hedges fire only under genuine brownouts and the normal-path
/// economics (one GET per read) are unchanged.
struct HedgePolicy {
  bool enabled = true;
  double delay_factor = 3.0;
};

class ReplicationScheme {
 public:
  explicit ReplicationScheme(std::string container,
                             ReplicaWriteMode mode = ReplicaWriteMode::kParallel)
      : container_(std::move(container)), mode_(mode) {}

  [[nodiscard]] const std::string& container() const { return container_; }

  void set_hedge(HedgePolicy policy) { hedge_ = policy; }
  [[nodiscard]] const HedgePolicy& hedge() const { return hedge_; }

  /// Writes one replica to each client in `replica_clients` concurrently.
  /// Succeeds if at least one replica lands (the paper's availability model:
  /// writes during an outage proceed and the offline copy is logged); the
  /// result lists which providers were written in meta.locations and which
  /// were unreachable via `unreachable` (if non-null).
  /// Zero-copy N-way fan-out: one owning Buffer is submitted to every
  /// replica target by refbump; no per-replica payload copies are made.
  WriteResult write(gcs::MultiCloudSession& session, const std::string& path,
                    common::Buffer data,
                    const std::vector<std::size_t>& replica_clients,
                    std::vector<std::string>* unreachable = nullptr) const;

  /// Legacy span adapter (no copy: the write is synchronous, so a borrowed
  /// view is safe for its duration).
  WriteResult write(gcs::MultiCloudSession& session, const std::string& path,
                    common::ByteSpan data,
                    const std::vector<std::size_t>& replica_clients,
                    std::vector<std::string>* unreachable = nullptr) const {
    return write(session, path, common::Buffer::borrow(data), replica_clients,
                 unreachable);
  }

  /// One object of a group commit (see write_many).
  struct GroupWrite {
    std::string path;
    common::Buffer data;
  };
  struct GroupWriteResult {
    WriteResult result;
    std::vector<std::string> unreachable;
  };

  /// Group commit: writes many small objects through ONE AsyncBatch —
  /// every object × every replica target submitted together, so in
  /// virtual time the whole group overlaps into a single fan-out round
  /// (the client write-back cache's flush path). Per-entry semantics
  /// mirror write(): an entry succeeds if at least one of its replicas
  /// landed, its latency is its own slowest replica, and its unreachable
  /// providers are reported for update-log accounting. `batch_latency`
  /// (if non-null) receives the whole batch's completion time. Parallel
  /// mode only; sequential (DuraCloud-style confirmation chains) falls back
  /// to per-item write().
  std::vector<GroupWriteResult> write_many(
      gcs::MultiCloudSession& session, std::vector<GroupWrite> items,
      const std::vector<std::size_t>& replica_clients,
      common::SimDuration* batch_latency = nullptr) const;

  /// Reads from the expected-fastest replica, failing over in latency
  /// order; a hedged backup fires per the HedgePolicy when the primary is
  /// slow. `degraded` is set when the first choice was
  /// unavailable (a hedge win alone is not degradation).
  ReadResult read(gcs::MultiCloudSession& session,
                  const meta::FileMeta& meta) const;

  /// In-place range update: a block write to every replica, in parallel —
  /// no read amplification at all (paper §II-B: under replication a small
  /// update "just writes new data"). Must not grow the file. The returned
  /// meta has crc = 0 (whole-object digest unknown after a partial write).
  WriteResult update_range(gcs::MultiCloudSession& session,
                           const meta::FileMeta& meta, std::uint64_t offset,
                           common::ByteSpan data,
                           std::vector<std::string>* unreachable = nullptr) const;

  /// Removes all replicas concurrently.
  RemoveResult remove(gcs::MultiCloudSession& session,
                      const meta::FileMeta& meta) const;

 private:
  std::string container_;
  ReplicaWriteMode mode_;
  HedgePolicy hedge_;
};

}  // namespace hyrd::dist
