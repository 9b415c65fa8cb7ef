#include "erasure/striper.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>

namespace hyrd::erasure {

namespace {

constexpr std::size_t kColumn = Striper::kColumn;

/// Bytes of the object held by data slot `slot`; the rest of the shard is
/// zero padding.
std::size_t data_bytes(std::uint64_t object_size, std::size_t shard_size,
                       std::size_t slot) {
  const std::uint64_t start = static_cast<std::uint64_t>(slot) * shard_size;
  if (start >= object_size) return 0;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(shard_size, object_size - start));
}

// The column grid every pass shares: column c of a run of bytes is its
// bytes [c * kColumn, (c + 1) * kColumn). A pass hashes each run column by
// column and folds the column CRCs into the run's CRC.

std::size_t columns_of(std::size_t len) {
  return (len + kColumn - 1) / kColumn;
}

/// Bytes of a `len`-byte run that fall in column `c`.
std::size_t column_bytes(std::size_t len, std::size_t c) {
  const std::size_t off = c * kColumn;
  return len > off ? std::min(kColumn, len - off) : std::size_t{0};
}

/// CRC32C of a `len`-byte run from the CRCs of its columns, crcs[c * stride]
/// holding column c's.
std::uint32_t fold_columns(const std::uint32_t* crcs, std::size_t stride,
                           std::size_t len) {
  std::uint32_t crc = 0;
  for (std::size_t c = 0; c < columns_of(len); ++c) {
    crc = common::crc32c_combine(crc, crcs[c * stride], column_bytes(len, c));
  }
  return crc;
}

/// Read-only views of the present shards; ReedSolomon::plan checks them.
std::vector<std::optional<common::ByteSpan>> views_of(
    std::span<const std::optional<common::Buffer>> shards) {
  std::vector<std::optional<common::ByteSpan>> views(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].has_value()) views[i] = shards[i]->span();
  }
  return views;
}

}  // namespace

Striper::Striper(StripeGeometry geometry)
    : geometry_(geometry), codec_(geometry.k, geometry.m) {}

std::size_t Striper::shard_size_for(std::uint64_t object_size) const {
  const std::uint64_t k = geometry_.k;
  const std::uint64_t size = std::max<std::uint64_t>(object_size, 1);
  return static_cast<std::size_t>((size + k - 1) / k);
}

StripeSet Striper::encode(common::Buffer object,
                          common::ThreadPool* pool) const {
  const std::size_t k = geometry_.k;
  const std::size_t total = geometry_.total();
  StripeSet set;
  set.object_size = object.size();
  set.shard_size = shard_size_for(object.size());
  const std::size_t shard_size = set.shard_size;

  // Every full data shard is an O(1) slice of the object (a store keeps it
  // by refbump, no memcpy anywhere on its way down); only a shard that
  // crosses or sits past the end needs padding. The padded shards and the
  // m parity shards share one write-once side arena, sliced per shard.
  set.shards.resize(total);
  std::vector<std::size_t> real(total, shard_size);  // bytes before padding
  std::vector<std::size_t> side;                     // slots in the arena
  for (std::size_t i = 0; i < k; ++i) {
    real[i] = data_bytes(object.size(), shard_size, i);
    if (real[i] == shard_size) {
      set.shards[i] = object.slice(i * shard_size, shard_size);
    } else {
      side.push_back(i);
    }
  }
  for (std::size_t i = k; i < total; ++i) side.push_back(i);
  auto arena = common::MutableBuffer::for_overwrite(side.size() * shard_size);
  std::vector<std::optional<common::ByteSpan>> views(total);
  for (std::size_t i = 0; i < k; ++i) views[i] = set.shards[i].span();
  for (std::size_t j = 0; j < side.size(); ++j) {
    views[side[j]] = arena.span(j * shard_size, shard_size);
  }
  const std::size_t padded = side.size() - geometry_.m;
  auto plan = codec_.plan(
      views, std::span<const std::size_t>(side).subspan(padded));
  assert(plan.is_ok());

  // Column pass: each task owns one kColumn-byte column of every shard.
  // Every arena byte is written exactly once — a padded shard's object
  // bytes copied in, its padding zeroed, parity overwritten from the plan
  // — and every shard's column is then hashed while it is still in cache.
  const std::size_t columns = columns_of(shard_size);
  std::vector<std::uint32_t> column_crcs(columns * total);  // [column][slot]
  common::for_each(pool, columns, [&](std::size_t c) {
    const std::size_t off = c * kColumn;
    const std::size_t len = column_bytes(shard_size, c);
    for (std::size_t j = 0; j < padded; ++j) {
      const std::size_t n = column_bytes(real[side[j]], c);
      arena.write(j * shard_size + off,
                  object.span().subspan(
                      std::min(side[j] * shard_size + off, object.size()), n));
      std::memset(arena.data() + j * shard_size + off + n, 0, len - n);
    }
    for (std::size_t p = 0; p < geometry_.m; ++p) {
      [[maybe_unused]] const auto st = plan.value().apply(
          p, off, arena.span((padded + p) * shard_size + off, len));
      assert(st.is_ok());
    }
    for (std::size_t i = 0; i < total; ++i) {
      column_crcs[c * total + i] =
          common::crc32c(views[i]->subspan(off, column_bytes(real[i], c)));
    }
  });

  common::Buffer frozen = std::move(arena).freeze();
  for (std::size_t j = 0; j < side.size(); ++j) {
    set.shards[side[j]] = frozen.slice(j * shard_size, shard_size);
  }
  // A data shard's CRC covers its object bytes, feeds the object CRC and is
  // then extended over the zero padding.
  set.shard_crcs.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    std::uint32_t crc = fold_columns(column_crcs.data() + i, total, real[i]);
    if (i < k) {
      set.object_crc = common::crc32c_combine(set.object_crc, crc, real[i]);
      crc = common::crc32c_zero_extend(crc, shard_size - real[i]);
    }
    set.shard_crcs[i] = crc;
  }
  return set;
}

std::vector<bool> Striper::check(
    std::uint64_t object_size, std::span<const std::uint32_t> shard_crcs,
    std::span<const std::size_t> slots, std::span<const common::ByteSpan> frags,
    std::span<std::optional<std::uint32_t>> data_crcs,
    common::ThreadPool* pool) const {
  const auto digest = [&](std::size_t j) -> std::uint32_t {
    return slots[j] < shard_crcs.size() ? shard_crcs[slots[j]]
                                        : 0;  // 0: digest unknown
  };
  // Bytes of fragment j before its padding (all of a parity fragment).
  const auto object_bytes = [&](std::size_t j) {
    return slots[j] < geometry_.k
               ? data_bytes(object_size, frags[j].size(), slots[j])
               : frags[j].size();
  };
  // A fragment with a digest is hashed as two runs, its object bytes and
  // its padding, each cut into columns: `len` bytes of fragment `frag`
  // from `off` per piece, in fragment, then offset order.
  struct Piece {
    std::size_t frag = 0, off = 0, len = 0;
  };
  std::vector<Piece> pieces;
  std::size_t bytes = 0;
  for (std::size_t j = 0; j < frags.size(); ++j) {
    if (digest(j) == 0) continue;
    const std::size_t n = object_bytes(j);
    const std::size_t pad = frags[j].size() - n;
    bytes += frags[j].size();
    for (std::size_t c = 0; c < columns_of(n); ++c) {
      pieces.push_back({j, c * kColumn, column_bytes(n, c)});
    }
    for (std::size_t c = 0; c < columns_of(pad); ++c) {
      pieces.push_back({j, n + c * kColumn, column_bytes(pad, c)});
    }
  }
  std::vector<std::uint32_t> crcs(pieces.size());
  // Fragments that fit one column together are hashed inline: handing
  // them to the pool costs more than it saves.
  common::for_each(bytes > kColumn ? pool : nullptr, pieces.size(),
                   [&](std::size_t i) {
                     const Piece& p = pieces[i];
                     crcs[i] =
                         common::crc32c(frags[p.frag].subspan(p.off, p.len));
                   });

  std::vector<bool> intact(frags.size(), true);
  const std::uint32_t* at = crcs.data();
  for (std::size_t j = 0; j < frags.size(); ++j) {
    if (digest(j) == 0) continue;
    const std::size_t n = object_bytes(j);
    const std::size_t pad = frags[j].size() - n;
    const std::uint32_t object_crc = fold_columns(at, 1, n);
    at += columns_of(n);
    const std::uint32_t whole =
        common::crc32c_combine(object_crc, fold_columns(at, 1, pad), pad);
    at += columns_of(pad);
    intact[j] = whole == digest(j);
    if (intact[j] && slots[j] < geometry_.k) data_crcs[slots[j]] = object_crc;
  }
  return intact;
}

common::Result<common::Buffer> Striper::assemble(
    std::uint64_t object_size, std::uint32_t crc,
    std::vector<std::optional<common::Buffer>> shards,
    std::span<const std::optional<std::uint32_t>> data_crcs,
    common::ThreadPool* pool) const {
  const std::size_t k = geometry_.k;
  if (shards.size() != geometry_.total()) {
    return common::invalid_argument("wrong fragment slot count");
  }
  const auto views = views_of(shards);
  std::vector<std::size_t> missing;  // data slots to reconstruct
  for (std::size_t i = 0; i < k; ++i) {
    if (!views[i].has_value()) missing.push_back(i);
  }
  // The survivor checks and, when a data slot is missing, its decode rows,
  // once for the whole stripe.
  const auto plan = codec_.plan(views, missing);
  if (!plan.is_ok()) return plan.status();
  const std::size_t shard_size = plan.value().shard_size();
  if (object_size > static_cast<std::uint64_t>(k) * shard_size) {
    return common::invalid_argument("shards too small for the object");
  }
  const auto len = static_cast<std::size_t>(object_size);
  const auto bytes_of = [&](std::size_t slot) {
    return data_bytes(object_size, shard_size, slot);
  };

  // A data slot's CRC is known when the caller hands it in for a present
  // slot; every other data slot with object bytes is hashed here.
  std::vector<bool> hash(k);
  for (std::size_t i = 0; i < k; ++i) {
    hash[i] = crc != 0 && bytes_of(i) > 0 &&
              !(views[i].has_value() && i < data_crcs.size() &&
                data_crcs[i].has_value());
  }

  std::optional<common::Buffer> object;
  if (missing.empty()) {
    // Fragments still sliced from one object (or handed back by reference
    // from one block) reassemble with a refbump.
    std::vector<common::Buffer> data;
    data.reserve(k);
    for (std::size_t i = 0; i < k; ++i) data.push_back(*shards[i]);
    object = common::Buffer::join_contiguous(data, len);
  }

  // Otherwise every output byte is written exactly once, column by column
  // (on the pool when one is given): present data slots are copied,
  // missing ones reconstructed in place from one plan, and the bytes to
  // hash are hashed while the column is in cache.
  std::optional<common::MutableBuffer> out;
  if (!object.has_value()) out = common::MutableBuffer::for_overwrite(len);
  const std::size_t columns = columns_of(shard_size);
  std::vector<std::uint32_t> column_crcs(columns * k);  // [column][slot]
  std::atomic<bool> failed{false};
  const auto column = [&](std::size_t c) {
    const std::size_t off = c * kColumn;
    if (out.has_value()) {
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t n = column_bytes(bytes_of(i), c);
        if (views[i].has_value() && n > 0) {
          out->write(i * shard_size + off, views[i]->subspan(off, n));
        }
      }
      for (std::size_t j = 0; j < missing.size(); ++j) {
        const std::size_t slot = missing[j];
        const auto dst = out->span(std::min(slot * shard_size + off, len),
                                   column_bytes(bytes_of(slot), c));
        if (!plan.value().apply(j, off, dst).is_ok()) failed = true;
      }
    }
    const std::uint8_t* base = out.has_value() ? out->data() : object->data();
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t n = column_bytes(bytes_of(i), c);
      if (hash[i] && n > 0) {
        column_crcs[c * k + i] =
            common::crc32c(common::ByteSpan(base + i * shard_size + off, n));
      }
    }
  };
  // Joined by refbump with every CRC known: no byte to touch.
  if (out.has_value() ||
      std::find(hash.begin(), hash.end(), true) != hash.end()) {
    common::for_each(pool, columns, column);
  }
  if (failed) return common::internal_error("column reconstruction failed");
  if (out.has_value()) object = std::move(*out).freeze();

  // 0 is the "digest unknown" sentinel (e.g. after an in-place RMW update,
  // which invalidates the whole-object CRC without recomputing it).
  if (crc != 0) {
    std::uint32_t got = 0;
    for (std::size_t i = 0; i < k && bytes_of(i) > 0; ++i) {
      const std::uint32_t part =
          hash[i] ? fold_columns(column_crcs.data() + i, k, bytes_of(i))
                  : *data_crcs[i];
      got = common::crc32c_combine(got, part, bytes_of(i));
    }
    if (got != crc) {
      return common::data_loss("object CRC mismatch after reassembly");
    }
  }
  return *std::move(object);
}

common::Result<std::vector<common::Buffer>> Striper::rebuild(
    std::span<const std::optional<common::Buffer>> shards,
    std::span<const std::size_t> wanted, common::ThreadPool* pool) const {
  const auto plan = codec_.plan(views_of(shards), wanted);
  if (!plan.is_ok()) return plan.status();
  const std::size_t shard_size = plan.value().shard_size();
  std::vector<common::MutableBuffer> outs;
  outs.reserve(wanted.size());
  for (std::size_t j = 0; j < wanted.size(); ++j) {
    outs.push_back(common::MutableBuffer::for_overwrite(shard_size));
  }
  std::atomic<bool> failed{false};
  common::for_each(pool, columns_of(shard_size), [&](std::size_t c) {
    const std::size_t off = c * kColumn;
    const std::size_t width = column_bytes(shard_size, c);
    for (std::size_t j = 0; j < outs.size(); ++j) {
      if (!plan.value().apply(j, off, outs[j].span(off, width)).is_ok()) {
        failed = true;
      }
    }
  });
  if (failed) return common::internal_error("column reconstruction failed");
  std::vector<common::Buffer> rebuilt;
  rebuilt.reserve(outs.size());
  for (auto& o : outs) rebuilt.push_back(std::move(o).freeze());
  return rebuilt;
}

}  // namespace hyrd::erasure
