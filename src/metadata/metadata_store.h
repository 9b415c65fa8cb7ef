// MetadataStore: the client-resident file-system metadata plane, grouped
// per directory so each directory serializes to one block (the replication
// unit shipped to performance-oriented providers).
//
// Sharded (DESIGN.md §14): directories are routed by a consistent-hash
// Keyspace onto N lock-striped shards, each an open-addressed robin-hood
// table of directories (each directory itself a robin-hood table of files).
// Lookups and upserts touch exactly one shard mutex; whole-store scans
// (file_count, directories, all_paths) lock shards one at a time in
// ascending index order and sort their harvest, so results stay
// deterministic regardless of shard count. serialize_directory output is
// byte-compatible with the pre-sharding single-map format.
//
// Lock order: a shard's write-order stripe (held across a whole client
// write, including cloud I/O) is always acquired before the shard's table
// mutex (held only for the microseconds of a table operation); the table
// mutex is never held while acquiring anything else.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "metadata/file_meta.h"
#include "metadata/keyspace.h"
#include "common/robin_hood.h"
#include "obs/metrics.h"

namespace hyrd::meta {

class MetadataStore {
 public:
  static constexpr std::size_t kDefaultShards = 16;
  /// Write-order stripes per shard: same-path write serialization (see
  /// core::StorageClient) folds into the shard this many ways, so distinct
  /// files of one directory keep their write parallelism.
  static constexpr std::size_t kWriteStripesPerShard = 8;

  MetadataStore() : MetadataStore(kDefaultShards) {}
  explicit MetadataStore(std::size_t shard_count);

  MetadataStore(const MetadataStore&) = delete;
  MetadataStore& operator=(const MetadataStore&) = delete;

  /// Inserts or overwrites the record for meta.path.
  void upsert(FileMeta meta);

  /// Atomically assigns meta.version = stored version + 1 (or 1 when the
  /// path is new) and upserts, all under the owning shard's lock. Returns
  /// the assigned version. This is the mutation every write path routes
  /// through the keyspace.
  std::uint64_t upsert_versioned(FileMeta& meta);

  /// Last-writer-wins merge step: upserts unless a strictly newer version
  /// is already present. Returns true when the record was applied.
  bool upsert_if_newer(FileMeta meta);

  [[nodiscard]] std::optional<FileMeta> lookup(const std::string& path) const;

  /// Removes a record; false if absent.
  bool erase(const std::string& path);

  [[nodiscard]] std::size_t file_count() const;
  [[nodiscard]] std::vector<std::string> directories() const;
  [[nodiscard]] std::vector<FileMeta> files_in(const std::string& dir) const;
  [[nodiscard]] std::vector<std::string> all_paths() const;

  /// Serializes one directory's records into a metadata block. Byte-
  /// compatible with the legacy single-map store: records in filename
  /// order, independent of shard count.
  [[nodiscard]] common::Bytes serialize_directory(const std::string& dir) const;

  /// Merges a metadata block's records into the store. Records already
  /// present with a newer version win (last-writer-wins per file).
  common::Status load_directory_block(common::ByteSpan block);

  void clear();

  // --- Keyspace routing (explicit, deterministic, rebalance-ready) ---
  [[nodiscard]] const Keyspace& keyspace() const { return keyspace_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t shard_of_dir(std::string_view dir) const {
    return keyspace_.shard_of_dir(dir);
  }

  /// The mutex serializing same-path client writes end-to-end. Routed via
  /// the keyspace to the owning shard's stripe set, so PR 7's standalone
  /// striped write locks fold into the shard layout.
  [[nodiscard]] std::mutex& write_order_mu(const std::string& path);

  /// Per-shard occupancy snapshot (gauges mirror this into the registry).
  struct ShardOccupancy {
    std::size_t directories = 0;
    std::size_t files = 0;
  };
  [[nodiscard]] std::vector<ShardOccupancy> shard_occupancy() const;

 private:
  // One directory: filename -> meta.
  using DirTable = common::RobinHoodMap<std::string, FileMeta>;

  struct Shard {
    mutable std::mutex mu;
    common::RobinHoodMap<std::string, DirTable> dirs;
    std::size_t files = 0;  // under mu; sum of dir sizes
    std::array<std::mutex, kWriteStripesPerShard> write_order;
    obs::Gauge files_gauge;       // meta.shard.<i>.files (registry-wide sum)
    obs::Counter contended;       // meta.shard.<i>.contended lock acquisitions
  };

  /// Locks a shard's table mutex, counting acquisitions that had to wait.
  [[nodiscard]] std::unique_lock<std::mutex> lock_shard(const Shard& s) const;

  [[nodiscard]] Shard& shard_for_dir(std::string_view dir) {
    return *shards_[keyspace_.shard_of_dir(dir)];
  }
  [[nodiscard]] const Shard& shard_for_dir(std::string_view dir) const {
    return *shards_[keyspace_.shard_of_dir(dir)];
  }

  Keyspace keyspace_;
  std::vector<std::unique_ptr<Shard>> shards_;
  obs::Histogram lookup_ns_;  // meta.lookup.ns
  obs::Histogram upsert_ns_;  // meta.upsert.ns
};

}  // namespace hyrd::meta
