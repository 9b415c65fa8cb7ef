// UpdateLog: the write/update log the paper's recovery design keeps during
// a provider outage (§III-C). While a provider is offline, every mutation
// that *would* have touched it is appended here; when the provider returns,
// the log drives consistency updates and is then truncated.
//
// Indexed (DESIGN.md §14): records live in one append-only slab in sequence
// order, and each provider keeps an index of its slot positions plus a
// latest-record-per-object map. That makes
//
//   * append        O(1) amortized — one slab push + index updates;
//   * pending_for   O(records pending for that provider) — no full-log
//                   scan-and-compact per call;
//   * truncate      touches only that provider's slots (slab space is
//                   reclaimed by an amortized compaction when over half the
//                   slab is dead).
//
// Superseded records (an object re-logged for the same provider) are
// flagged at append time; once a provider accumulates more shadowed
// records than the compaction watermark they are dropped eagerly, bounding
// the log's footprint during a long outage. serialize() writes live
// records in sequence order — byte-identical to the pre-index format for
// any log that has not crossed the watermark.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace hyrd::meta {

enum class LogAction : std::uint8_t {
  kPut = 0,     // object on the offline provider is stale; re-push
  kRemove = 1,  // object was deleted while provider was offline
};

struct LogRecord {
  std::uint64_t seq = 0;
  std::string provider;     // the offline provider this record targets
  std::string container;    // provider-side container of the stale object
  std::string path;         // logical file path (or synthetic meta path)
  std::string object_name;  // provider-side object name
  LogAction action = LogAction::kPut;
};

class UpdateLog {
 public:
  /// Superseded records tolerated per provider before eager compaction.
  static constexpr std::size_t kDefaultCompactionWatermark = 4096;

  /// Appends a record; assigns and returns its sequence number. O(1)
  /// amortized.
  std::uint64_t append(std::string provider, std::string container,
                       std::string path, std::string object_name,
                       LogAction action);

  /// All pending records for one provider, in sequence order. Later
  /// records for the same object supersede earlier ones (compacted view).
  [[nodiscard]] std::vector<LogRecord> pending_for(
      const std::string& provider) const;

  /// Drops every record for `provider` with seq <= through_seq, touching
  /// only that provider's index.
  void truncate(const std::string& provider, std::uint64_t through_seq);

  /// Logical record count (live, including superseded-but-uncompacted).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Compaction knobs/introspection (tests, benches).
  void set_compaction_watermark(std::size_t records);
  [[nodiscard]] std::size_t compactions() const;

  /// Serialized form (crash-consistency snapshot; round-trips in tests).
  [[nodiscard]] common::Bytes serialize() const;
  common::Status restore(common::ByteSpan data);

 private:
  struct Slot {
    LogRecord rec;
    bool dead = false;      // truncated or compacted away
    bool shadowed = false;  // a later record for the same object exists
  };

  struct ProviderIndex {
    std::vector<std::size_t> slots;  // live slab positions, seq order
    // object_name -> slab position of the latest record for it
    std::unordered_map<std::string, std::size_t> latest;
    std::size_t superseded = 0;  // live slots with shadowed = true
  };

  /// Drops this provider's shadowed records (marks them dead and purges
  /// them from the index). Called under mu_.
  void compact_provider(ProviderIndex& pi);

  /// Rebuilds the slab (dropping dead slots) and every provider index when
  /// more than half the slab is dead. Called under mu_.
  void maybe_compact_slab();

  /// Rebuilds providers_ from slab_. Called under mu_.
  void rebuild_indexes();

  mutable std::mutex mu_;
  std::vector<Slot> slab_;
  std::unordered_map<std::string, ProviderIndex> providers_;
  std::size_t dead_ = 0;
  std::size_t watermark_ = kDefaultCompactionWatermark;
  std::uint64_t compactions_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace hyrd::meta
