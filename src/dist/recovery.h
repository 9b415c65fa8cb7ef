// RecoveryManager: the two-phase outage recovery of paper §III-C.
//
// Phase 1 (during the outage) is on-demand reconstruction and lives in the
// schemes' read paths — nothing is eagerly migrated. Phase 2 (this class)
// runs when the provider returns: replay the update log against it so its
// stale objects become consistent, then truncate the log.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "dist/erasure_scheme.h"
#include "dist/replication.h"
#include "gcsapi/session.h"
#include "metadata/metadata_store.h"
#include "metadata/update_log.h"

namespace hyrd::dist {

struct RecoveryReport {
  common::Status status;
  std::size_t objects_repushed = 0;
  std::size_t removes_applied = 0;
  std::size_t skipped = 0;  // log records whose file no longer exists
  std::uint64_t bytes_pushed = 0;
  common::SimDuration latency = 0;
};

class RecoveryManager {
 public:
  /// A client passes the schemes it writes with: `replication` rebuilds
  /// replicated objects, `erasure` striped ones. Either may be null when
  /// the client never writes that kind.
  RecoveryManager(gcs::MultiCloudSession& session, meta::MetadataStore& store,
                  meta::UpdateLog& log, const ReplicationScheme* replication,
                  const ErasureScheme* erasure)
      : session_(session),
        store_(store),
        log_(log),
        replication_(replication),
        erasure_(erasure) {}

  /// Hook for synthetic objects (e.g. serialized metadata-directory
  /// blocks): given a logged logical path, return the current object bytes
  /// to push, or nullopt if this path is not synthetic. Checked before the
  /// metadata-store lookup.
  using BlockRegenerator =
      std::function<std::optional<common::Bytes>(const std::string& path)>;
  void set_block_regenerator(BlockRegenerator fn) {
    regenerator_ = std::move(fn);
  }

  /// Replays all pending log records for `provider` (which must be back
  /// online) and truncates the processed prefix. On the first failed
  /// record it stops, truncates through the last record it applied and
  /// returns the error, so a retry resumes at the failed record.
  RecoveryReport resync(const std::string& provider);

 private:
  BlockRegenerator regenerator_;
  gcs::MultiCloudSession& session_;
  meta::MetadataStore& store_;
  meta::UpdateLog& log_;
  const ReplicationScheme* replication_;
  const ErasureScheme* erasure_;
};

}  // namespace hyrd::dist
