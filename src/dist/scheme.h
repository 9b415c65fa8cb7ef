// Common vocabulary for redundant data distribution schemes.
//
// A scheme turns (path, bytes) into fragments on providers and back. The
// two concrete schemes — ReplicationScheme and ErasureScheme — are exactly
// the two options the paper contrasts in §II-B; HyRD composes them, RACS
// uses only erasure, DuraCloud only replication.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/status.h"
#include "gcsapi/async_batch.h"
#include "gcsapi/session.h"
#include "metadata/file_meta.h"

namespace hyrd::dist {

/// Result of a mutating scheme operation.
struct WriteResult {
  common::Status status;
  common::SimDuration latency = 0;
  meta::FileMeta meta;  // valid when status is OK
};

/// Result of a read.
struct ReadResult {
  common::Status status;
  common::SimDuration latency = 0;
  common::Buffer data;  // ref-counted view; see common/buffer.h
  bool degraded = false;  // true if reconstruction / failover was needed

  // Early-completion accounting (first-k / hedged paths; zero otherwise):
  // virtual time saved versus waiting for the slowest request.
  common::SimDuration saved = 0;
};

/// Result of a remove; lists providers that could not be reached so the
/// caller can log them for post-outage consistency updates.
struct RemoveResult {
  common::Status status;
  common::SimDuration latency = 0;
  std::vector<std::string> unreachable_providers;
};

/// Deterministic provider-side object name for a fragment of a file.
/// `suffix` is "r" for replicas, "s" for erasure shards.
std::string fragment_object_name(const std::string& path, char suffix,
                                 std::size_t index);

/// Orders client indices by expected GET latency for a transfer of `size`
/// bytes (fastest first). Used to pick which replica to read.
std::vector<std::size_t> order_by_expected_read_latency(
    const gcs::MultiCloudSession& session,
    const std::vector<std::size_t>& clients, std::uint64_t size);

/// Shared remove core for both schemes: issues one remove per fragment
/// location concurrently through the async engine and waits for every one;
/// latency = max. Locations whose remove failed kUnavailable (or whose
/// provider is not in the session) are reported in unreachable_providers
/// so the caller's UpdateLog replays them after the outage.
RemoveResult remove_fragments(gcs::MultiCloudSession& session,
                              const std::string& container,
                              const meta::FileMeta& meta);

}  // namespace hyrd::dist
