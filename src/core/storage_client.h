// StorageClient: the uniform client-facing API every evaluated scheme
// implements — HyRD and the five baselines (single cloud, DuraCloud,
// RACS, DepSky, NCCloud). Benchmarks drive all schemes through this
// class so their latency/cost numbers are directly comparable.
//
// Every public operation wraps the shared op skeleton (the do_* calls,
// DESIGN.md §3a) in two cross-cutting concerns:
//  * same-path write ordering (the metadata store's write-order stripes),
//    and
//  * the optional client cache (cache::ClientCache): small replicated
//    PUTs are absorbed into a bounded write-back FIFO and flushed in
//    group-commit batches; GETs consult the dirty set and a segmented-LRU
//    read cache before touching a provider. Disabled (the default) the
//    public paths collapse to the skeleton exactly.
//
// The skeleton itself is written once:
//
//   put     write_object → upsert → log unreachable fragments → persist
//   get     lookup → not-found → read_object
//   update  lookup → not-found → range check → update_object → (as put)
//   remove  lookup → not-found → remove_object → erase → persist
//
// and every path ends in the matching note_*. A client supplies only the
// scheme hooks that differ from the defaults, which run the scheme it
// holds (replication or erasure) on placement(path).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cache/client_cache.h"
#include "common/stats.h"
#include "dist/erasure_scheme.h"
#include "dist/replication.h"
#include "dist/scheme.h"
#include "gcsapi/session.h"
#include "metadata/metadata_store.h"
#include "metadata/update_log.h"

namespace hyrd::core {

/// Per-client operation statistics (virtual milliseconds).
struct ClientStats {
  common::RunningStat put_ms;
  common::RunningStat get_ms;
  common::RunningStat update_ms;
  common::RunningStat remove_ms;
  std::uint64_t degraded_reads = 0;
  std::uint64_t failed_ops = 0;

  [[nodiscard]] double mean_op_ms() const {
    const double n = static_cast<double>(put_ms.count() + get_ms.count() +
                                         update_ms.count() + remove_ms.count());
    if (n == 0) return 0.0;
    return (put_ms.sum() + get_ms.sum() + update_ms.sum() + remove_ms.sum()) / n;
  }
};

/// Outcome of one update-log replay (StorageClient::on_provider_restored).
struct RestoreResult {
  common::Status status;
  common::SimDuration latency = 0;
};

class StorageClient {
 public:
  virtual ~StorageClient() = default;

  StorageClient(const StorageClient&) = delete;
  StorageClient& operator=(const StorageClient&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Writes (or overwrites) the file at `path`. The Buffer overload is the
  /// zero-copy entry point: the payload travels by reference all the way to
  /// the stores (schemes slice it, they never duplicate it). The ByteSpan
  /// overload borrows the caller's memory for the (synchronous) call.
  /// With the write-back cache active, small writes are absorbed (latency
  /// = 0 unless this write trips a watermark, in which case the group
  /// flush is charged to it — the lazy-fsync stall).
  dist::WriteResult put(const std::string& path, common::Buffer data);
  dist::WriteResult put(const std::string& path, common::ByteSpan data) {
    return put(path, common::Buffer::borrow(data));
  }

  /// Reads the whole file. Dirty (unflushed) paths are served from the
  /// cache by default (they are the newest version) or flushed first when
  /// the flush-on-read coherence rule is configured; clean paths consult
  /// the read cache before the remote scheme.
  dist::ReadResult get(const std::string& path);

  /// In-place update of [offset, offset+data.size()); must not grow the
  /// file. This is the operation whose cost separates replication from
  /// erasure coding (paper §II-B write amplification). A dirty path is
  /// flushed first (updates patch remote state, so the base version must
  /// exist remotely).
  dist::WriteResult update(const std::string& path, std::uint64_t offset,
                           common::ByteSpan data);

  dist::RemoveResult remove(const std::string& path);

  // --- Async-issue path (the continuation seam the discrete-event engine
  // drives; see sim/). The contract is completion-ordered, not
  // thread-ordered: `done` receives the finished result exactly once, and
  // the call itself never blocks on wall-clock waits — every AsyncBatch
  // the schemes build inside runs its ops on the calling thread, so the
  // whole operation is one deterministic state-machine step whose cost is
  // CPU work. Under a common::VirtualScope the providers also see each
  // op's virtual arrival; without one these are plain synchronous calls
  // with a callback, so non-sim callers can share code with the engine.
  void put_async(const std::string& path, common::Buffer data,
                 std::function<void(dist::WriteResult)> done) {
    done(put(path, std::move(data)));
  }
  void get_async(const std::string& path,
                 std::function<void(dist::ReadResult)> done) {
    done(get(path));
  }

  /// Client-side metadata lookup (served from the in-memory store; the
  /// paper loads metadata blocks into client memory before file access).
  [[nodiscard]] std::optional<meta::FileMeta> stat(
      const std::string& path) const;

  [[nodiscard]] std::vector<std::string> list() const;

  /// Phase 2 of the paper's recovery (§III-C): `provider` is back online,
  /// so replay its pending update-log records in seq order, then truncate
  /// the log. A remove deletes the object (NotFound counts as done); a
  /// metadata block with no FileMeta is regenerated from the store; a put
  /// whose file is gone drops the stale object; any other put rebuilds its
  /// file on the provider through rebuild_on, at most once per path. The
  /// replay stops at the first failed record and truncates only through
  /// the last one applied, so a retry resumes at the failure.
  RestoreResult on_provider_restored(const std::string& provider);

  [[nodiscard]] const meta::MetadataStore& metadata() const { return store_; }
  [[nodiscard]] const meta::UpdateLog& update_log() const { return log_; }

  /// Synthetic logical path used in the update log for a directory's
  /// metadata block.
  static std::string meta_block_path(const std::string& dir);
  /// Provider-side object name for a directory's metadata block.
  static std::string meta_block_object_name(const std::string& dir);
  /// True if `path` is a synthetic metadata-block path; returns the dir.
  static std::optional<std::string> parse_meta_block_path(
      const std::string& path);

  // --- Client cache control ---

  /// Installs (config.enabled) or removes (!config.enabled) the cache.
  /// Callers must drain (flush_cache) before reconfiguring a live cache;
  /// a dirty entry present at removal is silently dropped.
  void configure_cache(const cache::CacheConfig& config);
  [[nodiscard]] cache::ClientCache* client_cache() { return cache_.get(); }
  [[nodiscard]] const cache::ClientCache* client_cache() const {
    return cache_.get();
  }

  struct CacheDrainReport {
    common::SimDuration latency = 0;   // sum over group-commit rounds
    std::uint64_t flushed_entries = 0;
    std::uint64_t flushed_bytes = 0;
    // Entries that could not be flushed (providers unreachable); they
    // remain dirty — the caller decides to retry later or account them
    // as lost via client_cache()->discard_all_dirty().
    std::uint64_t remaining_entries = 0;
    std::uint64_t remaining_bytes = 0;
  };

  /// Explicit flush/drain: group-commits every dirty entry, one batch at
  /// a time, attempting each entry once. Call before shutdown and before
  /// reading stats that must include all writes.
  CacheDrainReport flush_cache();

  [[nodiscard]] ClientStats stats_snapshot() const;
  void reset_stats();

 protected:
  /// `container` holds the client's data objects. A client passes the
  /// schemes it writes with and nullopt for the other kind.
  StorageClient(gcs::MultiCloudSession& session, std::string container,
                std::optional<dist::ReplicationScheme> replication,
                std::optional<dist::ErasureScheme> erasure = std::nullopt);

  // --- The op skeleton, below the cache ---
  dist::WriteResult do_put(const std::string& path, common::Buffer data);
  dist::ReadResult do_get(const std::string& path);
  dist::WriteResult do_update(const std::string& path, std::uint64_t offset,
                              common::ByteSpan data);
  dist::RemoveResult do_remove(const std::string& path);

  // --- Scheme hooks ---

  /// Providers for the fragments of a write to `path`. Default: the fixed
  /// `targets_`.
  [[nodiscard]] virtual std::vector<std::size_t> placement(
      const std::string& path) const {
    (void)path;
    return targets_;
  }
  /// Writes one object (a user file or a directory block) and lists the
  /// providers whose fragment did not land. Default: the held scheme on
  /// placement(path).
  virtual dist::WriteResult write_object(
      const std::string& path, common::Buffer data,
      std::vector<std::string>& unreachable);
  /// Default: the scheme that wrote `m`.
  virtual dist::ReadResult read_object(const meta::FileMeta& m);
  /// In-range update of an existing object. Default: erasure read-modify-
  /// write, or for replicas a block write — a whole-object overwrite
  /// goes through write_object instead.
  virtual dist::WriteResult update_object(
      const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
      std::vector<std::string>& unreachable);
  /// Deletes `m`'s fragments and logs the unreachable ones for replay.
  virtual dist::RemoveResult remove_object(const meta::FileMeta& m);
  /// Persists `dir`'s metadata block. Default: write_object on the
  /// synthetic block path, committed like a user file.
  virtual common::SimDuration persist_metadata(const std::string& dir);
  /// The meta an update-log record's path names, or nullopt once the file
  /// is gone. Default: the store's entry.
  [[nodiscard]] virtual std::optional<meta::FileMeta> logged_meta(
      const std::string& path) const {
    return store_.lookup(path);
  }
  /// Rewrites `m`'s objects on provider `node` from the surviving copies,
  /// writing only the object names `m` lists there and adding the virtual
  /// time to `latency`. Default: copy a replica, or rebuild the stripe's
  /// fragments.
  virtual common::Status rebuild_on(const meta::FileMeta& m, std::size_t node,
                                    common::SimDuration& latency);

  // --- Cache hooks ---

  /// Writes at or above this size bypass the write-back cache (they are
  /// the scheme's large/erasure traffic). Schemes with a size classifier
  /// override this to keep absorption aligned with classification; the
  /// cache's own max_object_bytes cap applies in addition.
  [[nodiscard]] virtual std::uint64_t write_back_threshold() const {
    return UINT64_MAX;
  }

  /// Read-cache hit notification (data served with zero provider I/O).
  /// `hits` counts lookups since insertion; HyRD drives hot promotion off
  /// it instead of the raw per-path read-count map.
  virtual void on_cache_hit(const std::string& path,
                            const common::Buffer& data, std::uint32_t hits) {
    (void)path;
    (void)data;
    (void)hits;
  }

  /// Hook for schemes to wire the adaptive-threshold cost model into a
  /// freshly configured cache (see cache::CostModel). Default: none.
  virtual void wire_adaptive(cache::ClientCache& cache) { (void)cache; }

  struct FlushResult {
    common::SimDuration latency = 0;
    std::size_t flushed = 0;
    std::uint64_t flushed_bytes = 0;
    std::vector<cache::DirtyEntry> failed;  // restored to the dirty set
  };

  /// Writes a group of dirty entries out. The caller already holds every
  /// involved write-order stripe. The default issues one do_put per entry
  /// and charges the *slowest* entry's latency: under a VirtualScope all
  /// entries are issued at the same virtual instant, so the batch
  /// overlaps into one round trip — exactly the group-commit model.
  /// Schemes override to batch harder (HyRD: one AsyncBatch for the
  /// whole group per provider, see ReplicationScheme::write_many).
  virtual FlushResult flush_entries(std::vector<cache::DirtyEntry> entries);

  // --- Shared tail helpers ---

  /// Upserts a landed write's meta and logs its unreachable fragments.
  void upsert_and_log(dist::WriteResult& result,
                      const std::vector<std::string>& unreachable);
  /// Appends an `action` record for every location of `m` on one of
  /// `providers`, for replay when that provider returns.
  void log_unreachable(const std::vector<std::string>& providers,
                       const meta::FileMeta& m, meta::LogAction action);
  /// Puts `dir`'s serialized block on every target and logs the targets
  /// it missed. Returns the slowest target's latency.
  common::SimDuration replicate_block(const std::string& dir,
                                      common::ByteSpan block,
                                      const std::string& container,
                                      const std::vector<std::size_t>& targets);

  void note_put(common::SimDuration latency, bool ok);
  void note_get(common::SimDuration latency, bool ok, bool degraded);
  void note_update(common::SimDuration latency, bool ok);
  void note_remove(common::SimDuration latency, bool ok);

  gcs::MultiCloudSession& session_;
  meta::MetadataStore store_;
  meta::UpdateLog log_;
  const std::string container_;
  std::optional<dist::ReplicationScheme> replication_;
  std::optional<dist::ErasureScheme> erasure_;
  std::vector<std::size_t> targets_;

 private:
  /// Runs the write tail: upsert_and_log, then persists the directory.
  void commit(dist::WriteResult& result,
              const std::vector<std::string>& unreachable);

  [[nodiscard]] bool should_absorb(std::uint64_t size) const;
  dist::WriteResult absorb_put(const std::string& path, common::Buffer data);
  /// Locks the involved stripes in address order, flushes, restores
  /// failures. Returns the flush result.
  FlushResult run_flush_group(std::vector<cache::DirtyEntry> entries,
                              bool forced);
  /// Takes one group from the cache under flush_mu_ and flushes it.
  FlushResult run_flush_group(bool forced);
  /// Coherence flush of a single dirty path (read/update/remove paths).
  common::SimDuration flush_path(const std::string& path);

  mutable std::mutex stats_mu_;
  ClientStats stats_;
  std::unique_ptr<cache::ClientCache> cache_;
  /// Serializes flush rounds: take-order must equal flush-order so a
  /// path's older incarnation can never land after a newer one.
  std::mutex flush_mu_;
};

}  // namespace hyrd::core
