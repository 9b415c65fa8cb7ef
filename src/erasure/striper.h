// Object striping: splits a byte object into k equally sized data shards
// (zero padded), pairs them with parity from a codec, and reassembles the
// original object from any k surviving shards.
//
// A StripeSet is what the distribution layer actually ships to providers:
// shard i of an object goes to provider (placement[i]).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/checksum.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "erasure/reed_solomon.h"

namespace hyrd::erasure {

/// Geometry of an erasure-coded object.
struct StripeGeometry {
  std::size_t k = 3;  // data shards
  std::size_t m = 1;  // parity shards (m=1 => RAID5 per the paper)

  [[nodiscard]] std::size_t total() const { return k + m; }
  /// Storage expansion factor n/k (paper §II-B: a rate r=k/n code costs 1/r).
  [[nodiscard]] double expansion() const {
    return static_cast<double>(total()) / static_cast<double>(k);
  }
};

struct StripeSet {
  StripeGeometry geometry;
  std::uint64_t object_size = 0;  // pre-padding logical size
  std::size_t shard_size = 0;
  /// k data shards then m parity shards — O(1) slices of one arena
  /// allocation (encode packs data + parity contiguously, then slices).
  std::vector<common::Buffer> shards;
  std::uint32_t object_crc = 0;       // CRC32C of the original object
};

class Striper {
 public:
  /// Width of the column-parallel stripe passes: each task encodes,
  /// hashes, copies or reconstructs one kColumn-byte column of every shard.
  static constexpr std::size_t kColumn = 256 * 1024;

  explicit Striper(StripeGeometry geometry);

  [[nodiscard]] const StripeGeometry& geometry() const { return geometry_; }
  [[nodiscard]] const ReedSolomon& codec() const { return codec_; }

  /// Splits + encodes an object into one arena allocation sliced
  /// per-shard. Objects smaller than k bytes still work (shards are zero
  /// padded); empty objects produce 1-byte shards so every provider slot
  /// stores a real fragment.
  [[nodiscard]] StripeSet encode(common::ByteSpan object) const;

  /// Reassembles the object from fragments: `shards` holds total() slots
  /// in code order, std::nullopt marking a missing one. Survivors are only
  /// read. Missing data slots are reconstructed from any k present shards
  /// straight into the output. When all k data slots are present and are
  /// adjacent views of one block (slices of an encode arena), this is
  /// O(1). Otherwise each object byte is written once into one fresh
  /// allocation.
  ///
  /// The object is checked against `crc` (0 = digest unknown) without
  /// hashing a byte twice: `data_crcs[i]`, when the caller already has it,
  /// is the CRC32C of present data slot i's object bytes
  /// (data_bytes(object_size, shard_size, i) of them) and is folded in with
  /// crc32c_combine. Reconstructed slots and slots without one are hashed
  /// here. With a `pool`, the copy, reconstruction and hashing run
  /// column-parallel on it and the calling thread.
  [[nodiscard]] common::Result<common::Buffer> assemble(
      std::uint64_t object_size, std::uint32_t crc,
      std::vector<std::optional<common::Buffer>> shards,
      std::span<const std::optional<std::uint32_t>> data_crcs = {},
      common::ThreadPool* pool = nullptr) const;

  /// Rebuilds shard slots `wanted` (data or parity) from the present
  /// `shards` (total() slots in code order, any k suffice, only read), each
  /// into a fresh write-once buffer. Column-parallel on `pool` when given.
  [[nodiscard]] common::Result<std::vector<common::Buffer>> rebuild(
      std::span<const std::optional<common::Buffer>> shards,
      std::span<const std::size_t> wanted,
      common::ThreadPool* pool = nullptr) const;

  /// Bytes of the object held by data slot `slot`; the rest of the shard
  /// is zero padding.
  [[nodiscard]] static std::size_t data_bytes(std::uint64_t object_size,
                                              std::size_t shard_size,
                                              std::size_t slot);

  /// Shard size implied by an object size under this geometry.
  [[nodiscard]] std::size_t shard_size_for(std::uint64_t object_size) const;

 private:
  StripeGeometry geometry_;
  ReedSolomon codec_;
};

}  // namespace hyrd::erasure
