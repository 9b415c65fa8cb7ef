#include "erasure/striper.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>

#include "common/copy_meter.h"

namespace hyrd::erasure {

namespace {

/// Read-only views of the present shards, with their common size.
struct Survivors {
  std::vector<std::optional<common::ByteSpan>> views;
  std::size_t shard_size = 0;
};

/// Fails with kInvalidArgument if the present shards differ in size and
/// with kDataLoss if fewer than k are present.
common::Result<Survivors> survivors_of(
    std::span<const std::optional<common::Buffer>> shards, std::size_t k) {
  Survivors out;
  out.views.resize(shards.size());
  std::size_t present = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (!shards[i].has_value()) continue;
    if (present++ == 0) out.shard_size = shards[i]->size();
    if (shards[i]->size() != out.shard_size) {
      return common::invalid_argument("present shards differ in size");
    }
    out.views[i] = shards[i]->span();
  }
  if (present < k) return common::data_loss("fewer than k shards present");
  return out;
}

/// reconstruct_into over column [off, off + width) of every survivor;
/// `dst[j]` receives that column (or its prefix) of slot `wanted[j]`.
bool reconstruct_column(const ReedSolomon& codec, const Survivors& s,
                        std::size_t off, std::size_t width,
                        std::span<const std::size_t> wanted,
                        std::span<const common::MutByteSpan> dst) {
  std::vector<std::optional<common::ByteSpan>> src(s.views.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (s.views[i].has_value()) src[i] = s.views[i]->subspan(off, width);
  }
  return codec.reconstruct_into(src, wanted, dst).is_ok();
}

}  // namespace

Striper::Striper(StripeGeometry geometry)
    : geometry_(geometry), codec_(geometry.k, geometry.m) {}

std::size_t Striper::shard_size_for(std::uint64_t object_size) const {
  const std::uint64_t k = geometry_.k;
  const std::uint64_t size = std::max<std::uint64_t>(object_size, 1);
  return static_cast<std::size_t>((size + k - 1) / k);
}

std::size_t Striper::data_bytes(std::uint64_t object_size,
                                std::size_t shard_size, std::size_t slot) {
  const std::uint64_t start = static_cast<std::uint64_t>(slot) * shard_size;
  if (start >= object_size) return 0;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(shard_size, object_size - start));
}

StripeSet Striper::encode(common::ByteSpan object) const {
  StripeSet set;
  set.geometry = geometry_;
  set.object_size = object.size();
  set.shard_size = shard_size_for(object.size());
  set.object_crc = common::crc32c(object);

  // One write-once arena for the whole stripe: [k data shards | m parity
  // shards]. The object is copied in, only the tail padding is zeroed, and
  // parity is encoded straight into its region. Then the arena is frozen
  // and sliced per shard — every shard is a view, not an allocation.
  const std::size_t total = geometry_.total();
  const std::size_t data_len = geometry_.k * set.shard_size;
  auto arena = common::MutableBuffer::for_overwrite(total * set.shard_size);
  arena.write(0, object);
  std::memset(arena.data() + object.size(), 0, data_len - object.size());

  std::vector<common::ByteSpan> data_views(geometry_.k);
  for (std::size_t i = 0; i < geometry_.k; ++i) {
    data_views[i] = arena.span(i * set.shard_size, set.shard_size);
  }
  std::vector<common::MutByteSpan> parity_views(geometry_.m);
  for (std::size_t p = 0; p < geometry_.m; ++p) {
    parity_views[p] = arena.span((geometry_.k + p) * set.shard_size,
                                 set.shard_size);
  }
  const auto st = codec_.encode_into(data_views, parity_views);
  assert(st.is_ok());
  (void)st;

  common::Buffer frozen = std::move(arena).freeze();
  set.shards.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    set.shards.push_back(frozen.slice(i * set.shard_size, set.shard_size));
  }
  return set;
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
  auto survivors = survivors_of(shards, k);
  if (!survivors.is_ok()) return survivors.status();
  const Survivors& live = survivors.value();
  const auto& views = live.views;
  const std::size_t shard_size = live.shard_size;
  std::vector<std::size_t> missing;  // data slots to reconstruct
  for (std::size_t i = 0; i < k; ++i) {
    if (!views[i].has_value()) missing.push_back(i);
  }
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
    // Fragments still sliced from one writer arena (or handed back by
    // reference from one block) reassemble with a refbump.
    std::vector<common::Buffer> data;
    data.reserve(k);
    for (std::size_t i = 0; i < k; ++i) data.push_back(*shards[i]);
    object = common::Buffer::join_contiguous(data, len);
  }

  // Otherwise every output byte is written exactly once, column by column
  // (on the pool when one is given): present data slots are copied,
  // missing ones reconstructed in place, and the bytes to hash are hashed
  // while the column is in cache.
  const std::size_t columns = (shard_size + kColumn - 1) / kColumn;
  // Object bytes of data slot `slot` inside column `c`.
  const auto column_bytes = [&](std::size_t c, std::size_t slot) {
    const std::size_t off = c * kColumn;
    const std::size_t n = bytes_of(slot);
    return n > off ? std::min(kColumn, n - off) : std::size_t{0};
  };
  std::vector<std::uint32_t> column_crcs(columns * k);  // [column][slot]
  std::optional<common::MutableBuffer> out;
  if (!object.has_value()) out = common::MutableBuffer::for_overwrite(len);
  std::atomic<bool> failed{false};
  const auto column = [&](std::size_t c) {
    const std::size_t off = c * kColumn;
    if (out.has_value()) {
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t n = column_bytes(c, i);
        if (views[i].has_value() && n > 0) {
          out->write(i * shard_size + off, views[i]->subspan(off, n));
        }
      }
      if (!missing.empty()) {
        std::vector<common::MutByteSpan> dst;
        dst.reserve(missing.size());
        for (std::size_t slot : missing) {
          dst.push_back(out->span(std::min(slot * shard_size + off, len),
                                  column_bytes(c, slot)));
        }
        if (!reconstruct_column(codec_, live, off,
                                std::min(kColumn, shard_size - off), missing,
                                dst)) {
          failed = true;
        }
      }
    }
    const std::uint8_t* base = out.has_value() ? out->data() : object->data();
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t n = column_bytes(c, i);
      if (hash[i] && n > 0) {
        column_crcs[c * k + i] =
            common::crc32c(common::ByteSpan(base + i * shard_size + off, n));
      }
    }
  };
  // Joined by refbump with every CRC known: no byte to touch.
  if (out.has_value() || std::find(hash.begin(), hash.end(), true) != hash.end()) {
    common::for_each(pool, columns, column);
  }
  if (failed) return common::internal_error("column reconstruction failed");
  if (out.has_value()) object = std::move(*out).freeze();

  // 0 is the "digest unknown" sentinel (e.g. after an in-place RMW update,
  // which invalidates the whole-object CRC without recomputing it).
  if (crc != 0) {
    std::uint32_t got = 0;
    for (std::size_t i = 0; i < k && bytes_of(i) > 0; ++i) {
      std::uint32_t part = 0;
      if (hash[i]) {
        for (std::size_t c = 0; c < columns; ++c) {
          if (const std::size_t n = column_bytes(c, i); n > 0) {
            part = common::crc32c_combine(part, column_crcs[c * k + i], n);
          }
        }
      } else {
        part = *data_crcs[i];
      }
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
  if (shards.size() != geometry_.total()) {
    return common::invalid_argument("wrong fragment slot count");
  }
  auto survivors = survivors_of(shards, geometry_.k);
  if (!survivors.is_ok()) return survivors.status();
  const Survivors& live = survivors.value();
  const std::size_t shard_size = live.shard_size;
  std::vector<common::MutableBuffer> outs;
  outs.reserve(wanted.size());
  for (std::size_t j = 0; j < wanted.size(); ++j) {
    outs.push_back(common::MutableBuffer::for_overwrite(shard_size));
  }
  std::atomic<bool> failed{false};
  common::for_each(pool, (shard_size + kColumn - 1) / kColumn,
                   [&](std::size_t c) {
    const std::size_t off = c * kColumn;
    const std::size_t width = std::min(kColumn, shard_size - off);
    std::vector<common::MutByteSpan> dst;
    dst.reserve(outs.size());
    for (auto& o : outs) dst.push_back(o.span(off, width));
    if (!reconstruct_column(codec_, live, off, width, wanted, dst)) {
      failed = true;
    }
  });
  if (failed) return common::invalid_argument("bad wanted slot");
  std::vector<common::Buffer> rebuilt;
  rebuilt.reserve(outs.size());
  for (auto& o : outs) rebuilt.push_back(std::move(o).freeze());
  return rebuilt;
}

}  // namespace hyrd::erasure
