#include "erasure/reed_solomon.h"

#include <cassert>
#include <numeric>

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
  std::vector<std::optional<common::ByteSpan>> shards(k_ + m_);
  std::vector<std::size_t> parity_slots(m_);
  for (std::size_t i = 0; i < k_; ++i) shards[i] = common::ByteSpan(data[i]);
  std::iota(parity_slots.begin(), parity_slots.end(), k_);
  auto plan = this->plan(shards, parity_slots);
  if (!plan.is_ok()) return plan.status();
  std::vector<common::Bytes> parity(m_,
                                    common::Bytes(plan.value().shard_size()));
  for (std::size_t p = 0; p < m_; ++p) {
    if (auto st = plan.value().apply(p, 0, parity[p]); !st.is_ok()) return st;
  }
  return parity;
}

common::Result<DecodePlan> ReedSolomon::plan(
    std::span<const std::optional<common::ByteSpan>> shards,
    std::span<const std::size_t> wanted) const {
  if (shards.size() != k_ + m_) {
    return common::invalid_argument("reconstruct expects k+m shard slots");
  }
  DecodePlan plan;
  std::vector<std::size_t> rows;  // the first k present slots
  rows.reserve(k_);
  plan.srcs_.reserve(k_);
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (!shards[i].has_value()) continue;
    if (rows.empty()) plan.shard_size_ = shards[i]->size();
    if (shards[i]->size() != plan.shard_size_) {
      return common::invalid_argument("present shards differ in size");
    }
    if (rows.size() < k_) {
      rows.push_back(i);
      plan.srcs_.push_back(*shards[i]);
    }
  }
  if (rows.size() < k_) {
    return common::data_loss("fewer than k shards present");
  }
  for (const std::size_t w : wanted) {
    if (w >= k_ + m_) return common::invalid_argument("bad wanted slot");
  }

  // coeffs = G[wanted] * inv(G[rows]): row j expresses slot wanted[j] over
  // the k survivors. When the survivors are the k data slots, inv is the
  // identity and the rows are the generator's own.
  plan.coeffs_ = generator_.select_rows(
      std::vector<std::size_t>(wanted.begin(), wanted.end()));
  bool rows_are_data = true;
  for (std::size_t s = 0; s < k_; ++s) rows_are_data &= rows[s] == s;
  if (!rows_are_data && !wanted.empty()) {
    auto inv = generator_.select_rows(rows).inverted();
    if (!inv.is_ok()) {
      return common::internal_error("generator submatrix not invertible");
    }
    plan.coeffs_ = plan.coeffs_.mul(inv.value());
  }
  return plan;
}

common::Status DecodePlan::apply(std::size_t j, std::size_t offset,
                                 common::MutByteSpan out) const {
  if (j >= coeffs_.rows() || offset > shard_size_ ||
      out.size() > shard_size_ - offset) {
    return common::invalid_argument("bad wanted slot or output size");
  }
  GF256::instance().mul_region_multi(out, srcs_, coeffs_.row(j), offset);
  return common::Status::ok();
}

common::Status ReedSolomon::reconstruct_into(
    std::span<const std::optional<common::ByteSpan>> shards,
    std::span<const std::size_t> wanted,
    std::span<const common::MutByteSpan> out) const {
  if (wanted.size() != out.size()) {
    return common::invalid_argument("one output per wanted slot");
  }
  auto plan = this->plan(shards, wanted);
  if (!plan.is_ok()) return plan.status();
  for (std::size_t j = 0; j < out.size(); ++j) {
    if (auto st = plan.value().apply(j, 0, out[j]); !st.is_ok()) return st;
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
