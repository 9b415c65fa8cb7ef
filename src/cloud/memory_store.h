// Thread-safe in-memory object store: the durable state behind a simulated
// provider. Latency/billing live in SimProvider; this class only stores.
//
// Two hot-path properties (DESIGN.md §9):
//  * Objects are held as ref-counted `Buffer`s, so get/get_range are a
//    refcount bump + O(1) slice — no memcpy under any lock — and put keeps
//    the caller's buffer by reference when it is owning (borrowed spans
//    are deep-copied before the lock is taken).
//  * The container map is sharded across kShards stripes keyed by the
//    container-name hash, so concurrent ops on different containers (and
//    every op against *other* shards) never contend on one global mutex.
//    stored_bytes_ is a relaxed atomic: it counts *logical* bytes — what a
//    provider would bill — not physical residency, which is per unique
//    block shared by however many fragments slice it.
//  * Containers and objects are hash-indexed (one node per object, as a
//    tree map would cost, but no string-compare walk down a tree); list()
//    sorts on demand, so listings stay in name order.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/status.h"

namespace hyrd::cloud {

class MemoryStore {
 public:
  common::Status create(const std::string& container);

  /// Stores `data`. Owning buffers are kept by refbump (zero-copy);
  /// borrowed ones are deep-copied (outside the shard lock).
  common::Status put(const std::string& container, const std::string& name,
                     common::Buffer data);
  common::Status put(const std::string& container, const std::string& name,
                     common::ByteSpan data) {
    return put(container, name, common::Buffer::borrow(data));
  }

  /// Refcount bump: the returned Buffer aliases the stored block.
  common::Result<common::Buffer> get(const std::string& container,
                                     const std::string& name) const;

  /// Byte-range read ([offset, offset+length) must lie inside the object):
  /// an O(1) slice of the stored block.
  common::Result<common::Buffer> get_range(const std::string& container,
                                           const std::string& name,
                                           std::uint64_t offset,
                                           std::uint64_t length) const;

  /// Byte-range overwrite of an existing object (must not grow it). Models
  /// a block write in a block-chunked object layout (see DESIGN.md §2).
  /// Copy-on-write: if the stored block is shared with live readers (or
  /// with sibling fragments in the same arena), they keep the pre-write
  /// snapshot and the store patches a private fork.
  common::Status put_range(const std::string& container,
                           const std::string& name, std::uint64_t offset,
                           common::ByteSpan data);

  common::Status remove(const std::string& container, const std::string& name);
  /// Object names in the container, sorted.
  common::Result<std::vector<std::string>> list(
      const std::string& container) const;

  [[nodiscard]] bool container_exists(const std::string& container) const;
  [[nodiscard]] std::uint64_t stored_bytes() const {
    return stored_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t object_count() const;

  /// Size of one object, if present (metadata-only peek used by audits).
  [[nodiscard]] std::optional<std::uint64_t> object_size(
      const std::string& container, const std::string& name) const;

  /// Drops every container and object (simulates catastrophic data loss,
  /// used by failure-injection tests).
  void wipe();

 private:
  static constexpr std::size_t kShards = 16;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string,
                       std::unordered_map<std::string, common::Buffer>>
        containers;
  };

  [[nodiscard]] const Shard& shard_for(const std::string& container) const {
    return shards_[std::hash<std::string>{}(container) % kShards];
  }
  [[nodiscard]] Shard& shard_for(const std::string& container) {
    return shards_[std::hash<std::string>{}(container) % kShards];
  }

  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> stored_bytes_{0};
};

}  // namespace hyrd::cloud
