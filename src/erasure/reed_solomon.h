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

/// How to compute some shard slots (data or parity) from one set of k
/// survivors: the survivors' views and one coefficient row
/// G[w] * inv(G[rows]) per wanted slot. ReedSolomon::plan builds it once per
/// stripe, with every check on the survivors and the wanted slots; apply()
/// then runs per column and allocates nothing. It views the survivors'
/// bytes, which must outlive it.
class DecodePlan {
 public:
  /// Size of the survivor shards.
  [[nodiscard]] std::size_t shard_size() const { return shard_size_; }

  /// Writes bytes [offset, offset + out.size()) of wanted slot `j` (its
  /// index in the plan's `wanted`) into `out`, overwriting it: `out` needs
  /// no zero-fill. Fails with kInvalidArgument if `j` is not an output of
  /// the plan or the range passes the end of the shards.
  [[nodiscard]] common::Status apply(std::size_t j, std::size_t offset,
                                     common::MutByteSpan out) const;

 private:
  friend class ReedSolomon;

  std::vector<common::ByteSpan> srcs_;  // the k survivors, in row order
  Matrix coeffs_;                       // one row per wanted slot
  std::size_t shard_size_ = 0;
};

class ReedSolomon {
 public:
  /// Requires 1 <= k, 1 <= m, k + m <= 256.
  ReedSolomon(std::size_t k, std::size_t m);

  [[nodiscard]] std::size_t data_shards() const { return k_; }
  [[nodiscard]] std::size_t parity_shards() const { return m_; }
  [[nodiscard]] std::size_t total_shards() const { return k_ + m_; }

  /// Computes m parity shards from k equally sized data shards: plan() of
  /// the parity slots over the data slots, applied once. To encode into
  /// caller buffers (no zero-fill needed), apply such a plan directly.
  [[nodiscard]] common::Result<std::vector<common::Bytes>> encode(
      std::span<const common::Bytes> data) const;

  /// Plans shard slots `wanted` (data or parity) from the present shards.
  /// `shards` holds k+m entries in code order (data first, parity after);
  /// std::nullopt marks a missing shard. The first k present shards are
  /// the survivors; when they are the k data slots no inverse is needed.
  /// Fails with kDataLoss if fewer than k shards are present and with
  /// kInvalidArgument on a wrong slot count, mixed shard sizes or a wanted
  /// slot out of range.
  [[nodiscard]] common::Result<DecodePlan> plan(
      std::span<const std::optional<common::ByteSpan>> shards,
      std::span<const std::size_t> wanted) const;

  /// plan() then apply() of every wanted slot: computes slot `wanted[j]`
  /// into `out[j]` from the present shards, which are only read. An output
  /// may be shorter than the shards: only that prefix is computed. Outputs
  /// are overwritten and need no zero-fill.
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
