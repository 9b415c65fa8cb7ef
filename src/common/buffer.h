// Ref-counted immutable byte buffer with O(1) slicing — the unit the
// zero-copy data plane moves (IOBuf-style: shared control block plus an
// offset/length view).
//
// Ownership model (DESIGN.md §9):
//  * A Buffer is an immutable *view* of a heap block shared by refcount.
//    slice() is O(1): it bumps the refcount and narrows the view; no byte
//    moves. Copying/moving a Buffer never copies payload.
//  * Nobody mutates bytes reachable through a Buffer. The only mutation
//    escape hatch is into_bytes()/to_bytes(), which hands the caller an
//    owned std::vector — stolen in O(1) when the Buffer is the sole owner
//    of its whole block, deep-copied (copy-on-write fork) otherwise.
//  * borrow() wraps foreign memory without owning it — the bridge from the
//    legacy ByteSpan entry points. A borrowed Buffer must not outlive the
//    memory it views; anything that stores a Buffer calls own(), which is
//    a refbump for owning buffers and a deep copy only for borrowed ones.
//  * MutableBuffer is the write-side arena: build bytes in place once
//    (e.g. all stripe shards of an object), freeze() into an immutable
//    Buffer, then slice per-fragment. MutableBuffer::for_overwrite() skips
//    the zero-fill; it is only for outputs the producer writes in full.
//
// Every deep copy is reported to the copy meter, so benches can prove the
// plane is as zero-copy as it claims.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "common/bytes.h"
#include "common/copy_meter.h"

namespace hyrd::common {

class Buffer {
 public:
  /// Empty buffer (owning, trivially; size() == 0).
  Buffer() = default;

  /// Deep copy of `data` into a fresh block (counted by the copy meter).
  static Buffer copy(ByteSpan data) {
    if (data.empty()) return Buffer();
    count_copied_bytes(data.size());
    auto block = std::make_shared<Bytes>(data.begin(), data.end());
    const std::uint8_t* ptr = block->data();
    return Buffer(std::move(block), ptr, data.size());
  }

  /// Adopts an existing vector without copying.
  static Buffer from(Bytes&& data) {
    if (data.empty()) return Buffer();
    auto block = std::make_shared<Bytes>(std::move(data));
    const std::uint8_t* ptr = block->data();
    const std::size_t len = block->size();
    return Buffer(std::move(block), ptr, len);
  }

  /// Deep copy of text (tests / metadata convenience).
  static Buffer of(std::string_view text) {
    return copy(ByteSpan(reinterpret_cast<const std::uint8_t*>(text.data()),
                         text.size()));
  }

  /// Non-owning view of foreign memory. The caller guarantees `data`
  /// outlives every use of the returned Buffer; durable sinks must call
  /// own() before keeping it.
  static Buffer borrow(ByteSpan data) {
    return Buffer(nullptr, data.data(), data.size());
  }

  [[nodiscard]] std::size_t size() const { return len_; }
  [[nodiscard]] bool empty() const { return len_ == 0; }
  [[nodiscard]] const std::uint8_t* data() const { return ptr_; }
  [[nodiscard]] const std::uint8_t* begin() const { return ptr_; }
  [[nodiscard]] const std::uint8_t* end() const { return ptr_ + len_; }
  const std::uint8_t& operator[](std::size_t i) const { return ptr_[i]; }

  [[nodiscard]] ByteSpan span() const { return ByteSpan(ptr_, len_); }
  operator ByteSpan() const { return span(); }  // NOLINT(google-explicit-constructor)

  /// O(1) sub-view sharing the same block. [offset, offset+length) must lie
  /// within the buffer.
  [[nodiscard]] Buffer slice(std::size_t offset, std::size_t length) const {
    assert(offset <= len_ && length <= len_ - offset);
    return Buffer(block_, ptr_ + offset, length);
  }

  /// O(1) prefix view (n is clamped to size()).
  [[nodiscard]] Buffer first(std::size_t n) const {
    return slice(0, std::min(n, len_));
  }

  /// False only for borrow()ed views of foreign memory.
  [[nodiscard]] bool owning() const { return has_block() || len_ == 0; }

  /// A Buffer safe to store durably: refbump when already owning, deep copy
  /// (counted) when borrowed.
  [[nodiscard]] Buffer own() const& { return owning() ? *this : copy(span()); }
  [[nodiscard]] Buffer own() && {
    return owning() ? std::move(*this) : copy(span());
  }

  /// Number of Buffer views sharing this block (0 for empty/borrowed).
  [[nodiscard]] long use_count() const { return block_.use_count(); }

  /// True when the two views alias the same underlying block.
  [[nodiscard]] bool same_block(const Buffer& other) const {
    return has_block() && !block_.owner_before(other.block_) &&
           !other.block_.owner_before(block_);
  }

  /// Owned copy of the bytes (always a deep copy, counted).
  [[nodiscard]] Bytes to_bytes() const {
    count_copied_bytes(len_);
    return Bytes(begin(), end());
  }

  /// Consumes the buffer into an owned vector. O(1) steal when this view is
  /// the sole owner of its entire vector block; otherwise (shared, partial,
  /// or a for_overwrite() arena) a copy-on-write fork (deep copy, counted)
  /// so other views keep their snapshot.
  [[nodiscard]] Bytes into_bytes() && {
    if (block_ && block_.use_count() == 1 && ptr_ == block_->data() &&
        len_ == block_->size()) {
      Bytes out = std::move(*block_);
      block_.reset();
      ptr_ = nullptr;
      len_ = 0;
      return out;
    }
    Bytes out = to_bytes();
    *this = Buffer();
    return out;
  }

  /// If `parts` are adjacent views of one block (in order, no gaps), returns
  /// an O(1) Buffer spanning the first `total_len` bytes of the run;
  /// std::nullopt otherwise. The decode fast path: fragments read back from
  /// a store that kept slices of the writer's arena reassemble for free.
  static std::optional<Buffer> join_contiguous(std::span<const Buffer> parts,
                                               std::size_t total_len) {
    if (parts.empty()) return std::nullopt;
    if (!parts.front().has_block()) return std::nullopt;
    std::size_t run = parts.front().len_;
    for (std::size_t i = 1; i < parts.size(); ++i) {
      if (!parts[i].same_block(parts.front())) return std::nullopt;
      if (parts[i].ptr_ != parts.front().ptr_ + run) return std::nullopt;
      run += parts[i].len_;
    }
    if (total_len > run) return std::nullopt;
    return Buffer(parts.front().block_, parts.front().ptr_, total_len);
  }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.len_ == b.len_ &&
           (a.ptr_ == b.ptr_ || std::equal(a.begin(), a.end(), b.begin()));
  }
  friend bool operator==(const Buffer& a, const Bytes& b) {
    return a.len_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  friend class MutableBuffer;

  Buffer(std::shared_ptr<Bytes> block, const std::uint8_t* ptr,
         std::size_t len)
      : block_(std::move(block)), ptr_(ptr), len_(len) {}

  /// False for empty and borrowed buffers. Compares the control block
  /// pointer with an empty one's, without touching the block.
  [[nodiscard]] bool has_block() const {
    return std::shared_ptr<Bytes>().owner_before(block_);
  }

  /// Shares ownership of the heap block. The stored pointer is the vector
  /// when the block is one (the only kind into_bytes() can steal) and null
  /// for a for_overwrite() arena, so identity checks compare owners.
  std::shared_ptr<Bytes> block_;
  const std::uint8_t* ptr_ = nullptr;
  std::size_t len_ = 0;
};

/// Write-side arena: a uniquely-owned block the producer fills in place,
/// then freeze()s into an immutable Buffer to slice out.
class MutableBuffer {
 public:
  /// Zero-initialised arena.
  explicit MutableBuffer(std::size_t size)
      : MutableBuffer(std::make_shared<Bytes>(size, std::uint8_t{0})) {}

  /// Write-once arena whose bytes start indeterminate: no zero-fill pass.
  /// Only for outputs the producer overwrites in full before freeze()
  /// exposes them (DESIGN.md §9): parity, reconstructed shards, gathers.
  static MutableBuffer for_overwrite(std::size_t size) {
    std::shared_ptr<std::uint8_t[]> raw =
        std::make_shared_for_overwrite<std::uint8_t[]>(size);
    std::uint8_t* data = raw.get();
    return MutableBuffer(std::shared_ptr<Bytes>(std::move(raw), nullptr), data,
                         size);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::uint8_t* data() { return data_; }
  [[nodiscard]] MutByteSpan span() { return MutByteSpan(data_, size_); }
  [[nodiscard]] MutByteSpan span(std::size_t offset, std::size_t length) {
    assert(offset <= size_ && length <= size_ - offset);
    return MutByteSpan(data_ + offset, length);
  }

  /// Copies `src` into the arena at `offset` (counted).
  void write(std::size_t offset, ByteSpan src) {
    assert(offset <= size_ && src.size() <= size_ - offset);
    if (src.empty()) return;
    count_copied_bytes(src.size());
    std::memcpy(data_ + offset, src.data(), src.size());
  }

  /// Seals the arena. The MutableBuffer is spent afterwards. A MutByteSpan
  /// taken before freeze() still writes into the frozen block; that is
  /// only safe for a region no Buffer view has been sliced over yet.
  [[nodiscard]] Buffer freeze() && {
    return Buffer(std::move(block_), data_, size_);
  }

 private:
  explicit MutableBuffer(std::shared_ptr<Bytes> vec)
      : MutableBuffer(vec, vec->data(), vec->size()) {}
  MutableBuffer(std::shared_ptr<Bytes> block, std::uint8_t* data,
                std::size_t size)
      : block_(std::move(block)), data_(data), size_(size) {}

  std::shared_ptr<Bytes> block_;  // same ownership scheme as Buffer::block_
  std::uint8_t* data_;
  std::size_t size_;
};

/// Overflow-safe range containment: true iff [offset, offset+length) lies
/// within [0, size). Written without `offset + length`, which wraps for
/// huge offsets and falsely passes `> size` checks.
constexpr bool range_within(std::uint64_t offset, std::uint64_t length,
                            std::uint64_t size) {
  return offset <= size && length <= size - offset;
}

}  // namespace hyrd::common
