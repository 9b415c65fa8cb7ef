// Checksums and digests used for object integrity.
//
// - CRC32C guards individual fragments and whole objects (fast, per-op).
//   On SSE4.2 hosts it runs three interleaved CRC32 instruction chains and
//   folds them with precomputed shift tables; elsewhere it runs
//   slicing-by-8. CRCs of parts combine into the CRC of their
//   concatenation without touching the bytes again, which is how the
//   stripe writer hashes each byte once.
// - FNV-1a keys internal hash maps.
// - SHA-256 fingerprints whole objects so reconstruction paths can be
//   verified end to end (and powers the future-work dedup extension).
// All implemented from scratch; no external crypto dependency.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.h"

namespace hyrd::common {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41). Slicing-by-8 software
/// path, upgraded at run time to the SSE4.2 CRC32 instruction when the
/// host supports it. Chaining property: crc32c(a+b) == crc32c(b, crc32c(a)).
std::uint32_t crc32c(ByteSpan data, std::uint32_t seed = 0);

/// CRC of a concatenation from the CRCs of its parts, in O(log len2):
///   crc32c_combine(crc32c(a), crc32c(b), b.size()) == crc32c(a+b).
/// Holds because a CRC is affine in its input: crc32c(a+b) is crc32c(a)
/// run over b.size() zero bytes (a multiplication by x^(8*len2) mod P),
/// XOR crc32c(b).
std::uint32_t crc32c_combine(std::uint32_t crc1, std::uint32_t crc2,
                             std::uint64_t len2);

/// CRC of `a` followed by `n` zero bytes, from crc = crc32c(a), in
/// O(log n): crc32c_zero_extend(crc32c(a), n) == crc32c(a + 0^n) ==
/// crc32c(0^n, crc32c(a)). crc32c_zero_extend(0, n) is the CRC of n zero
/// bytes.
std::uint32_t crc32c_zero_extend(std::uint32_t crc, std::uint64_t n);

/// Bytewise single-table CRC-32C (the seed implementation), retained as
/// the reference the wide-word paths are property-tested against.
std::uint32_t crc32c_reference(ByteSpan data, std::uint32_t seed = 0);

namespace detail {
/// The slicing-by-8 path crc32c() runs on hosts without SSE4.2, callable
/// directly so tests cover it on hosts that have it.
std::uint32_t crc32c_slicing8(ByteSpan data, std::uint32_t seed = 0);
}  // namespace detail

/// FNV-1a 64-bit hash. Chaining property: fnv1a(a+b) == fnv1a(b, fnv1a(a)).
constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t fnv1a(std::string_view s,
                              std::uint64_t h = kFnv1aOffset) {
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a(ByteSpan data);

/// SHA-256 digest.
struct Sha256Digest {
  std::array<std::uint8_t, 32> bytes{};

  friend bool operator==(const Sha256Digest&, const Sha256Digest&) = default;
  [[nodiscard]] std::string hex() const;
};

class Sha256 {
 public:
  Sha256();
  void update(ByteSpan data);
  [[nodiscard]] Sha256Digest finalize();

  static Sha256Digest digest(ByteSpan data) {
    Sha256 h;
    h.update(data);
    return h.finalize();
  }

 private:
  /// Compresses `count` consecutive 64-byte blocks, keeping the working
  /// state in registers across the whole run.
  void process_blocks(const std::uint8_t* block, std::size_t count);

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::uint64_t bit_len_ = 0;
  std::size_t buffer_len_ = 0;
};

}  // namespace hyrd::common
