#include "erasure/gf256.h"

#include <cassert>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HYRD_GF256_X86 1
#endif

namespace hyrd::erasure {

namespace {

constexpr unsigned kPrimPoly = 0x11D;  // x^8 + x^4 + x^3 + x^2 + 1

inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

inline void store64(std::uint8_t* p, std::uint64_t w) {
  std::memcpy(p, &w, sizeof(w));
}

// Every kernel has the same shape: dst/src pointers, a byte count, and the
// 16-entry low/high nibble product tables of one coefficient.
using RegionFn = void (*)(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t n, const std::uint8_t* lo,
                          const std::uint8_t* hi);

inline std::uint8_t nib_mul(const std::uint8_t* lo, const std::uint8_t* hi,
                            std::uint8_t v) {
  return static_cast<std::uint8_t>(lo[v & 0xF] ^ hi[v >> 4]);
}

// ---- Portable wide-word kernels: 8 bytes per uint64 load/store step ----

void mul_add_portable(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n, const std::uint8_t* lo,
                      const std::uint8_t* hi) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t s = load64(src + i);
    std::uint64_t r = 0;
    for (unsigned b = 0; b < 64; b += 8) {
      const auto v = static_cast<std::uint8_t>(s >> b);
      r |= static_cast<std::uint64_t>(nib_mul(lo, hi, v)) << b;
    }
    store64(dst + i, load64(dst + i) ^ r);
  }
  for (; i < n; ++i) dst[i] ^= nib_mul(lo, hi, src[i]);
}

void mul_portable(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                  const std::uint8_t* lo, const std::uint8_t* hi) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t s = load64(src + i);
    std::uint64_t r = 0;
    for (unsigned b = 0; b < 64; b += 8) {
      const auto v = static_cast<std::uint8_t>(s >> b);
      r |= static_cast<std::uint64_t>(nib_mul(lo, hi, v)) << b;
    }
    store64(dst + i, r);
  }
  for (; i < n; ++i) dst[i] = nib_mul(lo, hi, src[i]);
}

#ifdef HYRD_GF256_X86

// ---- SSSE3: PSHUFB does 16 nibble lookups per instruction ----

__attribute__((target("ssse3"))) void mul_add_ssse3(
    std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
    const std::uint8_t* lo, const std::uint8_t* hi) {
  const __m128i tlo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo));
  const __m128i thi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i pl = _mm_shuffle_epi8(tlo, _mm_and_si128(s, mask));
    const __m128i ph =
        _mm_shuffle_epi8(thi, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
    __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    d = _mm_xor_si128(d, _mm_xor_si128(pl, ph));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), d);
  }
  for (; i < n; ++i) dst[i] ^= nib_mul(lo, hi, src[i]);
}

__attribute__((target("ssse3"))) void mul_ssse3(std::uint8_t* dst,
                                                const std::uint8_t* src,
                                                std::size_t n,
                                                const std::uint8_t* lo,
                                                const std::uint8_t* hi) {
  const __m128i tlo = _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo));
  const __m128i thi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i pl = _mm_shuffle_epi8(tlo, _mm_and_si128(s, mask));
    const __m128i ph =
        _mm_shuffle_epi8(thi, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(pl, ph));
  }
  for (; i < n; ++i) dst[i] = nib_mul(lo, hi, src[i]);
}

// ---- AVX2: the same shuffle on 32-byte lanes, unrolled to 64 B/step ----

__attribute__((target("avx2"))) void mul_add_avx2(std::uint8_t* dst,
                                                  const std::uint8_t* src,
                                                  std::size_t n,
                                                  const std::uint8_t* lo,
                                                  const std::uint8_t* hi) {
  const __m256i tlo = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo)));
  const __m256i thi = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi)));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m256i s0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i s1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i + 32));
    const __m256i p0 = _mm256_xor_si256(
        _mm256_shuffle_epi8(tlo, _mm256_and_si256(s0, mask)),
        _mm256_shuffle_epi8(thi,
                            _mm256_and_si256(_mm256_srli_epi64(s0, 4), mask)));
    const __m256i p1 = _mm256_xor_si256(
        _mm256_shuffle_epi8(tlo, _mm256_and_si256(s1, mask)),
        _mm256_shuffle_epi8(thi,
                            _mm256_and_si256(_mm256_srli_epi64(s1, 4), mask)));
    __m256i d0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    __m256i d1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d0, p0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32),
                        _mm256_xor_si256(d1, p1));
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i p = _mm256_xor_si256(
        _mm256_shuffle_epi8(tlo, _mm256_and_si256(s, mask)),
        _mm256_shuffle_epi8(thi,
                            _mm256_and_si256(_mm256_srli_epi64(s, 4), mask)));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, p));
  }
  for (; i < n; ++i) dst[i] ^= nib_mul(lo, hi, src[i]);
}

__attribute__((target("avx2"))) void mul_avx2(std::uint8_t* dst,
                                              const std::uint8_t* src,
                                              std::size_t n,
                                              const std::uint8_t* lo,
                                              const std::uint8_t* hi) {
  const __m256i tlo = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo)));
  const __m256i thi = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi)));
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i p = _mm256_xor_si256(
        _mm256_shuffle_epi8(tlo, _mm256_and_si256(s, mask)),
        _mm256_shuffle_epi8(thi,
                            _mm256_and_si256(_mm256_srli_epi64(s, 4), mask)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), p);
  }
  for (; i < n; ++i) dst[i] = nib_mul(lo, hi, src[i]);
}

#endif  // HYRD_GF256_X86

struct KernelSet {
  RegionFn mul_add;
  RegionFn mul;
  std::string_view name;
};

const KernelSet& kernels() {
  static const KernelSet ks = [] {
#ifdef HYRD_GF256_X86
    if (__builtin_cpu_supports("avx2")) {
      return KernelSet{mul_add_avx2, mul_avx2, "avx2"};
    }
    if (__builtin_cpu_supports("ssse3")) {
      return KernelSet{mul_add_ssse3, mul_ssse3, "ssse3"};
    }
#endif
    return KernelSet{mul_add_portable, mul_portable, "portable64"};
  }();
  return ks;
}

// dst ^= src, 8 bytes per step (the c == 1 fast path; also cheap enough
// that the compiler vectorizes it further at -O3).
void xor_region(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store64(dst + i, load64(dst + i) ^ load64(src + i));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

}  // namespace

const GF256& GF256::instance() {
  static const GF256 gf;
  return gf;
}

GF256::GF256() {
  // Generate exp/log tables from the generator element 2.
  unsigned x = 1;
  for (unsigned i = 0; i < 255; ++i) {
    exp_[i] = static_cast<std::uint8_t>(x);
    log_[x] = static_cast<std::uint16_t>(i);
    x <<= 1;
    if (x & 0x100u) x ^= kPrimPoly;
  }
  for (unsigned i = 255; i < 512; ++i) exp_[i] = exp_[i - 255];
  log_[0] = 0;  // never read; mul() guards zero operands

  for (unsigned c = 0; c < 256; ++c) {
    for (unsigned v = 0; v < 16; ++v) {
      nib_lo_[c][v] = mul(static_cast<std::uint8_t>(c),
                          static_cast<std::uint8_t>(v));
      nib_hi_[c][v] = mul(static_cast<std::uint8_t>(c),
                          static_cast<std::uint8_t>(v << 4));
    }
  }
}

std::uint8_t GF256::div(std::uint8_t a, std::uint8_t b) const {
  assert(b != 0 && "GF256 division by zero");
  if (a == 0) return 0;
  return exp_[log_[a] + 255 - log_[b]];
}

std::uint8_t GF256::inv(std::uint8_t a) const {
  assert(a != 0 && "GF256 inverse of zero");
  return exp_[255 - log_[a]];
}

std::uint8_t GF256::pow(std::uint8_t a, unsigned n) const {
  if (n == 0) return 1;
  if (a == 0) return 0;
  const unsigned e = (static_cast<unsigned>(log_[a]) * n) % 255;
  return exp_[e];
}

std::string_view GF256::region_kernel_name() { return kernels().name; }

void GF256::mul_add_region(common::MutByteSpan dst, common::ByteSpan src,
                           std::uint8_t c) const {
  assert(dst.size() == src.size());
  if (c == 0 || dst.empty()) return;
  if (c == 1) {
    xor_region(dst.data(), src.data(), dst.size());
    return;
  }
  kernels().mul_add(dst.data(), src.data(), dst.size(), nib_lo_[c].data(),
                    nib_hi_[c].data());
}

void GF256::mul_region(common::MutByteSpan dst, common::ByteSpan src,
                       std::uint8_t c) const {
  assert(dst.size() == src.size());
  if (dst.empty()) return;
  if (c == 0) {
    std::memset(dst.data(), 0, dst.size());
    return;
  }
  if (c == 1) {
    std::memmove(dst.data(), src.data(), dst.size());
    return;
  }
  kernels().mul(dst.data(), src.data(), dst.size(), nib_lo_[c].data(),
                nib_hi_[c].data());
}

void GF256::mul_region_multi(common::MutByteSpan dst,
                             std::span<const common::ByteSpan> srcs,
                             const std::uint8_t* coeffs,
                             std::size_t src_offset) const {
  // Chunk so the dst slice stays hot in L1 while every source is folded
  // in — one pass over dst per chunk instead of one per source.
  constexpr std::size_t kChunk = 8 * 1024;
  const std::size_t n = dst.size();
  if (srcs.empty()) {
    if (n > 0) std::memset(dst.data(), 0, n);
    return;
  }
  for (std::size_t off = 0; off < n; off += kChunk) {
    const std::size_t len = std::min(kChunk, n - off);
    auto d = dst.subspan(off, len);
    assert(srcs[0].size() >= src_offset + n);
    mul_region(d, srcs[0].subspan(src_offset + off, len), coeffs[0]);
    for (std::size_t j = 1; j < srcs.size(); ++j) {
      assert(srcs[j].size() >= src_offset + n);
      mul_add_region(d, srcs[j].subspan(src_offset + off, len), coeffs[j]);
    }
  }
}

void GF256::mul_add_region_scalar(common::MutByteSpan dst, common::ByteSpan src,
                                  std::uint8_t c) const {
  assert(dst.size() == src.size());
  if (c == 0) return;
  if (c == 1) {
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] ^= src[i];
    return;
  }
  // The seed algorithm: build the coefficient's 256-entry product row,
  // then one table lookup per byte.
  std::array<std::uint8_t, 256> row;
  for (unsigned v = 0; v < 256; ++v) {
    row[v] = mul(c, static_cast<std::uint8_t>(v));
  }
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] ^= row[src[i]];
}

void GF256::mul_region_scalar(common::MutByteSpan dst, common::ByteSpan src,
                              std::uint8_t c) const {
  assert(dst.size() == src.size());
  std::array<std::uint8_t, 256> row;
  for (unsigned v = 0; v < 256; ++v) {
    row[v] = mul(c, static_cast<std::uint8_t>(v));
  }
  for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = row[src[i]];
}

}  // namespace hyrd::erasure
