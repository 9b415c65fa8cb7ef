// Object striping and the stripe format. Striper is the one owner of how
// an object becomes k+m shards and back: the padding rule (k equal data
// shards, the tail zero padded), the per-shard CRC rule (a data shard's CRC
// covers its object bytes and is continued over its padding; 0 means
// digest unknown) and the kColumn-byte column grid on which every pass
// runs. The distribution layer (dist::ErasureScheme) only places, ships and
// fetches the shards: shard i of an object goes to provider placement[i].
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
  std::uint64_t object_size = 0;  // pre-padding logical size
  std::size_t shard_size = 0;
  /// k data shards then m parity shards. A full data shard is an O(1)
  /// slice of the object; the padded tail and the parity are slices of one
  /// write-once side arena.
  std::vector<common::Buffer> shards;
  /// CRC32C of each shard as stored, padding included.
  std::vector<std::uint32_t> shard_crcs;
  std::uint32_t object_crc = 0;  // CRC32C of the original object
};

class Striper {
 public:
  /// Width of the column-parallel stripe passes: each task encodes,
  /// hashes, copies or reconstructs one kColumn-byte column of every shard.
  static constexpr std::size_t kColumn = 256 * 1024;

  explicit Striper(StripeGeometry geometry);

  [[nodiscard]] const StripeGeometry& geometry() const { return geometry_; }
  [[nodiscard]] const ReedSolomon& codec() const { return codec_; }

  /// The stripe encoder. Full data shards are slices of `object` (kept by
  /// refcount, never copied). A shard that crosses or sits past the end is
  /// padded: it and the m parity shards fill one write-once side arena,
  /// column by column (on `pool` and the calling thread when given), each
  /// column's object bytes copied, padding zeroed, parity computed from one
  /// plan and every byte hashed while in cache. Objects smaller than k
  /// bytes still work; empty objects produce 1-byte shards so every
  /// provider slot stores a real fragment.
  [[nodiscard]] StripeSet encode(common::Buffer object,
                                 common::ThreadPool* pool = nullptr) const;

  /// Copies a borrowed object into an owned buffer once, then encodes it.
  [[nodiscard]] StripeSet encode(common::ByteSpan object,
                                 common::ThreadPool* pool = nullptr) const {
    return encode(common::Buffer::copy(object), pool);
  }

  /// Checks fetched shards of an `object_size`-byte object against the
  /// CRCs encode() recorded (`shard_crcs`, by slot; 0 or absent = digest
  /// unknown, which passes): `frags[j]` holds slot `slots[j]`. One pass per
  /// byte: a data shard's object bytes are hashed and that CRC is continued
  /// over the padding, so the pad is verified too. The object-byte CRC of
  /// each intact data shard with a digest is left in `data_crcs[slot]` (k
  /// entries) for assemble(). Column-parallel on `pool` when the shards
  /// hold more than one column. Returns one verdict per fragment.
  [[nodiscard]] std::vector<bool> check(
      std::uint64_t object_size, std::span<const std::uint32_t> shard_crcs,
      std::span<const std::size_t> slots,
      std::span<const common::ByteSpan> frags,
      std::span<std::optional<std::uint32_t>> data_crcs,
      common::ThreadPool* pool = nullptr) const;

  /// Reassembles the object from fragments: `shards` holds total() slots
  /// in code order, std::nullopt marking a missing one. Survivors are only
  /// read. Missing data slots are reconstructed from any k present shards
  /// straight into the output, with one decode plan for the whole stripe.
  /// When all k data slots are present and are adjacent views of one block
  /// (slices of one object), this is O(1). Otherwise each object byte is
  /// written once into one fresh allocation.
  ///
  /// The object is checked against `crc` (0 = digest unknown) without
  /// hashing a byte twice: `data_crcs[i]`, when the caller already has it
  /// (from check()), is the CRC32C of present data slot i's object bytes
  /// and is folded in with crc32c_combine. Reconstructed slots and slots
  /// without one are hashed here. With a `pool`, the copy, reconstruction
  /// and hashing run column-parallel on it and the calling thread.
  [[nodiscard]] common::Result<common::Buffer> assemble(
      std::uint64_t object_size, std::uint32_t crc,
      std::vector<std::optional<common::Buffer>> shards,
      std::span<const std::optional<std::uint32_t>> data_crcs = {},
      common::ThreadPool* pool = nullptr) const;

  /// Rebuilds shard slots `wanted` (data or parity) from the present
  /// `shards` (total() slots in code order, any k suffice, only read), each
  /// into a fresh write-once buffer, with one decode plan for the stripe.
  /// Column-parallel on `pool` when given.
  [[nodiscard]] common::Result<std::vector<common::Buffer>> rebuild(
      std::span<const std::optional<common::Buffer>> shards,
      std::span<const std::size_t> wanted,
      common::ThreadPool* pool = nullptr) const;

  /// Shard size implied by an object size under this geometry.
  [[nodiscard]] std::size_t shard_size_for(std::uint64_t object_size) const;

 private:
  StripeGeometry geometry_;
  ReedSolomon codec_;
};

}  // namespace hyrd::erasure
