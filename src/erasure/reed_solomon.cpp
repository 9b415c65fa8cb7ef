#include "erasure/reed_solomon.h"

#include <cassert>

#include "erasure/gf256.h"

namespace hyrd::erasure {

ReedSolomon::ReedSolomon(std::size_t k, std::size_t m)
    : k_(k), m_(m), generator_(Matrix::rs_generator(k, m)) {
  assert(k >= 1 && m >= 1 && k + m <= 256);
}

common::Result<std::vector<common::Bytes>> ReedSolomon::encode(
    std::span<const common::Bytes> data) const {
  if (data.size() != k_) {
    return common::invalid_argument("encode expects exactly k data shards");
  }
  const std::size_t shard_size = data[0].size();
  std::vector<common::ByteSpan> views(data.begin(), data.end());
  std::vector<common::Bytes> parity(m_, common::Bytes(shard_size));
  std::vector<common::MutByteSpan> parity_views(parity.begin(), parity.end());
  if (auto st = encode_into(views, parity_views); !st.is_ok()) return st;
  return parity;
}

common::Status ReedSolomon::encode_into(
    std::span<const common::ByteSpan> data,
    std::span<const common::MutByteSpan> parity) const {
  if (data.size() != k_ || parity.size() != m_) {
    return common::invalid_argument("encode expects k data + m parity shards");
  }
  const std::size_t shard_size = data[0].size();
  for (const auto& d : data) {
    if (d.size() != shard_size) {
      return common::invalid_argument("data shards must be equally sized");
    }
  }
  for (const auto& p : parity) {
    if (p.size() != shard_size) {
      return common::invalid_argument("parity shards must match data size");
    }
  }
  const auto& gf = GF256::instance();
  for (std::size_t p = 0; p < m_; ++p) {
    gf.mul_region_multi(parity[p], data, generator_.row(k_ + p));
  }
  return common::Status::ok();
}

common::Status ReedSolomon::reconstruct_into(
    std::span<const std::optional<common::ByteSpan>> shards,
    std::span<const std::size_t> wanted,
    std::span<const common::MutByteSpan> out) const {
  if (shards.size() != k_ + m_) {
    return common::invalid_argument("reconstruct expects k+m shard slots");
  }
  if (wanted.size() != out.size()) {
    return common::invalid_argument("one output per wanted slot");
  }
  std::vector<std::size_t> rows;  // the first k present slots
  rows.reserve(k_);
  std::size_t shard_size = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (!shards[i].has_value()) continue;
    if (rows.empty()) shard_size = shards[i]->size();
    if (shards[i]->size() != shard_size) {
      return common::invalid_argument("present shards differ in size");
    }
    if (rows.size() < k_) rows.push_back(i);
  }
  if (rows.size() < k_) {
    return common::data_loss("fewer than k shards present");
  }
  for (std::size_t j = 0; j < wanted.size(); ++j) {
    if (wanted[j] >= k_ + m_ || out[j].size() > shard_size) {
      return common::invalid_argument("bad wanted slot or output size");
    }
  }
  if (wanted.empty()) return common::Status::ok();

  // coeffs = G[wanted] * inv(G[rows]): row j expresses slot wanted[j] over
  // the k survivors. When the survivors are the k data slots, inv is the
  // identity and the rows are the generator's own.
  Matrix coeffs = generator_.select_rows(
      std::vector<std::size_t>(wanted.begin(), wanted.end()));
  bool rows_are_data = true;
  for (std::size_t s = 0; s < k_; ++s) rows_are_data &= rows[s] == s;
  if (!rows_are_data) {
    auto inv = generator_.select_rows(rows).inverted();
    if (!inv.is_ok()) {
      return common::internal_error("generator submatrix not invertible");
    }
    coeffs = coeffs.mul(inv.value());
  }

  std::vector<common::ByteSpan> srcs;
  srcs.reserve(k_);
  for (std::size_t s = 0; s < k_; ++s) srcs.push_back(*shards[rows[s]]);
  const auto& gf = GF256::instance();
  for (std::size_t j = 0; j < wanted.size(); ++j) {
    gf.mul_region_multi(out[j], srcs, coeffs.row(j));
  }
  return common::Status::ok();
}

bool ReedSolomon::verify(std::span<const common::Bytes> shards) const {
  if (shards.size() != k_ + m_) return false;
  const std::size_t shard_size = shards[0].size();
  for (const auto& s : shards) {
    if (s.size() != shard_size) return false;
  }
  auto parity = encode(shards.subspan(0, k_));
  if (!parity.is_ok()) return false;
  for (std::size_t p = 0; p < m_; ++p) {
    if (parity.value()[p] != shards[k_ + p]) return false;
  }
  return true;
}

common::Result<std::vector<common::Bytes>> ReedSolomon::parity_delta(
    std::size_t data_index, common::ByteSpan old_data,
    common::ByteSpan new_data) const {
  if (data_index >= k_) {
    return common::invalid_argument("data_index out of range");
  }
  if (old_data.size() != new_data.size()) {
    return common::invalid_argument("old/new shard sizes differ");
  }
  const auto& gf = GF256::instance();
  common::Bytes diff(old_data.size());
  for (std::size_t i = 0; i < diff.size(); ++i) {
    diff[i] = old_data[i] ^ new_data[i];
  }
  std::vector<common::Bytes> deltas(m_, common::Bytes(diff.size(), 0));
  for (std::size_t p = 0; p < m_; ++p) {
    gf.mul_region(deltas[p], diff, generator_.at(k_ + p, data_index));
  }
  return deltas;
}

}  // namespace hyrd::erasure
