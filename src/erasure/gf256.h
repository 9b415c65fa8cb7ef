// GF(2^8) arithmetic over the polynomial x^8+x^4+x^3+x^2+1 (0x11D, the
// common erasure-coding choice, as in Jerasure/ISA-L).
//
// Scalar ops are exp/log table lookups. The region kernels (dst ^= c * src
// over a whole buffer — the Reed–Solomon encode/decode inner loop) use
// split low/high-nibble product tables: 16 bytes per nibble half, 32 bytes
// per coefficient, exactly the layout a PSHUFB-style shuffle consumes.
// At run time the widest available kernel is selected once: AVX2 (32 B per
// step), SSSE3 (16 B), or a portable std::uint64_t path (8 B). A scalar
// reference implementation is retained for property tests.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/bytes.h"

namespace hyrd::erasure {

class GF256 {
 public:
  /// Singleton table set (immutable after construction).
  static const GF256& instance();

  [[nodiscard]] std::uint8_t add(std::uint8_t a, std::uint8_t b) const {
    return a ^ b;
  }
  [[nodiscard]] std::uint8_t sub(std::uint8_t a, std::uint8_t b) const {
    return a ^ b;
  }

  [[nodiscard]] std::uint8_t mul(std::uint8_t a, std::uint8_t b) const {
    if (a == 0 || b == 0) return 0;
    return exp_[log_[a] + log_[b]];
  }

  /// Division; b must be nonzero.
  [[nodiscard]] std::uint8_t div(std::uint8_t a, std::uint8_t b) const;

  /// Multiplicative inverse; a must be nonzero.
  [[nodiscard]] std::uint8_t inv(std::uint8_t a) const;

  /// a^n for n >= 0.
  [[nodiscard]] std::uint8_t pow(std::uint8_t a, unsigned n) const;

  /// dst[i] ^= c * src[i] for the whole region (the encode/decode kernel).
  void mul_add_region(common::MutByteSpan dst, common::ByteSpan src,
                      std::uint8_t c) const;

  /// dst[i] = c * src[i].
  void mul_region(common::MutByteSpan dst, common::ByteSpan src,
                  std::uint8_t c) const;

  /// Fused multi-source kernel:
  /// dst[i] = XOR_j coeffs[j] * srcs[j][src_offset + i].
  /// Processes the region in L1-sized chunks so dst is written once per
  /// chunk instead of once per source — a whole parity (or reconstructed)
  /// row in a single pass over memory. dst's prior contents are never
  /// read, so it may be uninitialised memory. Sources may be longer than
  /// src_offset + dst.size(); only that window of them is used, so one
  /// column of whole shards is coded without slicing each source.
  void mul_region_multi(common::MutByteSpan dst,
                        std::span<const common::ByteSpan> srcs,
                        const std::uint8_t* coeffs,
                        std::size_t src_offset = 0) const;

  // Scalar reference kernels: the seed's per-byte product-table algorithm,
  // retained so property tests can check the wide kernels byte for byte.
  void mul_add_region_scalar(common::MutByteSpan dst, common::ByteSpan src,
                             std::uint8_t c) const;
  void mul_region_scalar(common::MutByteSpan dst, common::ByteSpan src,
                         std::uint8_t c) const;

  /// Name of the region kernel selected at run time ("avx2", "ssse3",
  /// or "portable64") — for bench labels and diagnostics.
  [[nodiscard]] static std::string_view region_kernel_name();

 private:
  GF256();

  // exp_ is doubled so mul() can skip the mod-255 reduction.
  std::array<std::uint8_t, 512> exp_{};
  std::array<std::uint16_t, 256> log_{};
  // Split-nibble product tables: nib_lo_[c][x] = c*x, nib_hi_[c][x] = c*(x<<4)
  // for x in [0,16). 8 KiB total (vs the seed's 64 KiB full product table),
  // L1-resident, and directly loadable as shuffle control data.
  alignas(16) std::array<std::array<std::uint8_t, 16>, 256> nib_lo_{};
  alignas(16) std::array<std::array<std::uint8_t, 16>, 256> nib_hi_{};
};

}  // namespace hyrd::erasure
