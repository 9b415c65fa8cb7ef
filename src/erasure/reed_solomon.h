// Systematic Reed–Solomon erasure codec over GF(2^8).
//
// RS(k, m): k data shards + m parity shards; any k of the k+m shards
// reconstruct the original data. RAID5 (the paper's case study) is the
// special case m = 1: Matrix::rs_generator gives it an all-ones parity row,
// so its parity is the plain XOR of the data shards.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "erasure/matrix.h"

namespace hyrd::erasure {

class ReedSolomon {
 public:
  /// Requires 1 <= k, 1 <= m, k + m <= 256.
  ReedSolomon(std::size_t k, std::size_t m);

  [[nodiscard]] std::size_t data_shards() const { return k_; }
  [[nodiscard]] std::size_t parity_shards() const { return m_; }
  [[nodiscard]] std::size_t total_shards() const { return k_ + m_; }

  /// Computes m parity shards from k equally sized data shards.
  [[nodiscard]] common::Result<std::vector<common::Bytes>> encode(
      std::span<const common::Bytes> data) const;

  /// Allocation-free encode into caller-provided parity buffers sized
  /// like the data shards. Parity is overwritten, never read, so the
  /// buffers need no zero-fill (write-once arenas, DESIGN.md §9). The
  /// stripe writer passes uninitialised arena memory, one column of every
  /// shard at a time: parity is positional.
  [[nodiscard]] common::Status encode_into(
      std::span<const common::ByteSpan> data,
      std::span<const common::MutByteSpan> parity) const;

  /// Computes shard slot `wanted[j]` (data or parity) into `out[j]` from
  /// the present shards, which are only read. `shards` holds k+m entries
  /// in code order (data first, parity after); std::nullopt marks a
  /// missing shard. Each wanted slot is one coefficient row
  /// G[w] * inv(G[rows]) applied to k survivors and overwrites its output,
  /// which needs no zero-fill. An output may be shorter than the shards:
  /// only that prefix is computed. Fails with kDataLoss if fewer than k
  /// shards are present.
  [[nodiscard]] common::Status reconstruct_into(
      std::span<const std::optional<common::ByteSpan>> shards,
      std::span<const std::size_t> wanted,
      std::span<const common::MutByteSpan> out) const;

  /// True iff the parity shards are consistent with the data shards.
  [[nodiscard]] bool verify(std::span<const common::Bytes> shards) const;

  /// Incremental parity: given one data shard's old and new contents,
  /// returns the deltas to XOR-merge into each parity shard. This is the
  /// read-modify-write small-update path whose cost the paper's Table I
  /// quantifies (2 reads + 2 writes for RAID5).
  [[nodiscard]] common::Result<std::vector<common::Bytes>> parity_delta(
      std::size_t data_index, common::ByteSpan old_data,
      common::ByteSpan new_data) const;

 private:
  std::size_t k_;
  std::size_t m_;
  Matrix generator_;  // (k+m) x k systematic generator
};

}  // namespace hyrd::erasure
