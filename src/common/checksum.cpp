#include "common/checksum.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HYRD_CRC_X86 1
#endif

namespace hyrd::common {
namespace {

constexpr std::uint32_t kPolyReflected = 0x82F63B78u;  // 0x1EDC6F41 reflected

// Slicing-by-8 CRC-32C: table[0] is the classic bitwise-derived table,
// table[t][b] extends it so eight input bytes fold into the running CRC
// with eight independent lookups per 64-bit load.
struct Crc32cTables {
  std::uint32_t t[8][256];
};

Crc32cTables make_crc32c_tables() {
  Crc32cTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = tables.t[0][i];
    for (int slice = 1; slice < 8; ++slice) {
      crc = (crc >> 8) ^ tables.t[0][crc & 0xFFu];
      tables.t[slice][i] = crc;
    }
  }
  return tables;
}

const Crc32cTables kCrc = make_crc32c_tables();

// GF(2) polynomial arithmetic modulo the CRC polynomial, in the reflected
// bit order the CRC register uses (bit 31 is the x^0 coefficient). Running
// a raw CRC register over n zero bytes multiplies it by x^(8n) mod P, so
// this one operator drives crc32c_combine, crc32c_zero_extend and the
// fold tables of the interleaved kernel.

/// a(x) * b(x) mod P(x); requires a != 0.
std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) {
  std::uint32_t m = 1u << 31;
  std::uint32_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1u) ? (b >> 1) ^ kPolyReflected : b >> 1;
  }
  return p;
}

/// x^(8 * 2^i) mod P(x) for i in [0, 64), by repeated squaring of x^8.
struct ZeroBytesTable {
  std::uint32_t t[64];
};

ZeroBytesTable make_zero_bytes_table() {
  ZeroBytesTable z{};
  std::uint32_t p = 1u << 23;  // x^8
  for (auto& e : z.t) {
    e = p;
    p = multmodp(p, p);
  }
  return z;
}

const ZeroBytesTable kZeroBytes = make_zero_bytes_table();

/// x^(8 * n) mod P(x): the operator that runs a raw register over n zero
/// bytes. O(log n) multiplications.
std::uint32_t zero_bytes_op(std::uint64_t n) {
  std::uint32_t p = 1u << 31;  // x^0
  for (int i = 0; n != 0; n >>= 1, ++i) {
    if (n & 1u) p = multmodp(kZeroBytes.t[i], p);
  }
  return p;
}

std::uint32_t crc32c_sw(std::uint32_t crc, const std::uint8_t* p,
                        std::size_t n) {
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    w ^= crc;
    crc = kCrc.t[7][w & 0xFF] ^ kCrc.t[6][(w >> 8) & 0xFF] ^
          kCrc.t[5][(w >> 16) & 0xFF] ^ kCrc.t[4][(w >> 24) & 0xFF] ^
          kCrc.t[3][(w >> 32) & 0xFF] ^ kCrc.t[2][(w >> 40) & 0xFF] ^
          kCrc.t[1][(w >> 48) & 0xFF] ^ kCrc.t[0][w >> 56];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ kCrc.t[0][(crc ^ *p++) & 0xFFu];
  }
  return crc;
}

#ifdef HYRD_CRC_X86
// The CRC32 instruction has a latency of three cycles and a throughput of
// one per cycle, so one dependent chain runs at a third of the unit's rate.
// The kernel runs three independent chains over adjacent blocks and folds
// them: crc(A|B|C) = shift_B(shift_B(crc(A)) ^ crc0(B)) ^ crc0(C), where
// crc0 starts from a zero register and shift_B runs a register over a
// block of zero bytes, applied per byte through a 4x256 table.
constexpr std::size_t kLongBlock = 8192;
constexpr std::size_t kShortBlock = 256;

struct ShiftTable {
  std::uint32_t t[4][256];
};

ShiftTable make_shift_table(std::size_t block) {
  ShiftTable z{};
  const std::uint32_t op = zero_bytes_op(block);
  for (std::uint32_t b = 0; b < 256; ++b) {
    for (int byte = 0; byte < 4; ++byte) {
      z.t[byte][b] = multmodp(op, b << (8 * byte));
    }
  }
  return z;
}

const ShiftTable kShiftLong = make_shift_table(kLongBlock);
const ShiftTable kShiftShort = make_shift_table(kShortBlock);

inline std::uint64_t shift(const ShiftTable& z, std::uint64_t crc) {
  return z.t[0][crc & 0xFF] ^ z.t[1][(crc >> 8) & 0xFF] ^
         z.t[2][(crc >> 16) & 0xFF] ^ z.t[3][(crc >> 24) & 0xFF];
}

inline std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

/// Consumes whole 3 x kBlock runs of [p, p + n) into register c0.
template <std::size_t kBlock>
__attribute__((target("sse4.2"))) inline std::uint64_t crc32c_hw_3way(
    std::uint64_t c0, const std::uint8_t*& p, std::size_t& n,
    const ShiftTable& z) {
  while (n >= 3 * kBlock) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kBlock; i += 8) {
      c0 = _mm_crc32_u64(c0, load64(p + i));
      c1 = _mm_crc32_u64(c1, load64(p + kBlock + i));
      c2 = _mm_crc32_u64(c2, load64(p + 2 * kBlock + i));
    }
    c0 = shift(z, c0) ^ c1;
    c0 = shift(z, c0) ^ c2;
    p += 3 * kBlock;
    n -= 3 * kBlock;
  }
  return c0;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(std::uint32_t crc,
                                                          const std::uint8_t* p,
                                                          std::size_t n) {
  std::uint64_t c = crc;
  c = crc32c_hw_3way<kLongBlock>(c, p, n, kShiftLong);
  c = crc32c_hw_3way<kShortBlock>(c, p, n, kShiftShort);
  while (n >= 8) {
    c = _mm_crc32_u64(c, load64(p));
    p += 8;
    n -= 8;
  }
  auto c32 = static_cast<std::uint32_t>(c);
  while (n-- > 0) c32 = _mm_crc32_u8(c32, *p++);
  return c32;
}
#endif

using CrcFn = std::uint32_t (*)(std::uint32_t, const std::uint8_t*,
                                std::size_t);

CrcFn pick_crc32c() {
#ifdef HYRD_CRC_X86
  if (__builtin_cpu_supports("sse4.2")) return crc32c_hw;
#endif
  return crc32c_sw;
}

const CrcFn kCrcImpl = pick_crc32c();

constexpr std::array<std::uint32_t, 64> kSha256K = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

}  // namespace

std::uint32_t crc32c(ByteSpan data, std::uint32_t seed) {
  return ~kCrcImpl(~seed, data.data(), data.size());
}

std::uint32_t crc32c_combine(std::uint32_t crc1, std::uint32_t crc2,
                             std::uint64_t len2) {
  return multmodp(zero_bytes_op(len2), crc1) ^ crc2;
}

std::uint32_t crc32c_zero_extend(std::uint32_t crc, std::uint64_t n) {
  return ~multmodp(zero_bytes_op(n), ~crc);
}

namespace detail {
std::uint32_t crc32c_slicing8(ByteSpan data, std::uint32_t seed) {
  return ~crc32c_sw(~seed, data.data(), data.size());
}
}  // namespace detail

std::uint32_t crc32c_reference(ByteSpan data, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::uint8_t b : data) {
    crc = (crc >> 8) ^ kCrc.t[0][(crc ^ b) & 0xFFu];
  }
  return ~crc;
}

std::uint64_t fnv1a(ByteSpan data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Sha256Digest::hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

Sha256::Sha256() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
}

void Sha256::process_blocks(const std::uint8_t* block, std::size_t count) {
  // Keep the working variables in locals across the whole run of blocks;
  // state_ is read once and written once per call, not per block.
  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (std::size_t blk = 0; blk < count; ++blk, block += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
             (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t ta = a, tb = b, tc = c, td = d;
    std::uint32_t te = e, tf = f, tg = g, th = h;
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(te, 6) ^ std::rotr(te, 11) ^ std::rotr(te, 25);
      const std::uint32_t ch = (te & tf) ^ (~te & tg);
      const std::uint32_t temp1 = th + s1 + ch + kSha256K[i] + w[i];
      const std::uint32_t s0 =
          std::rotr(ta, 2) ^ std::rotr(ta, 13) ^ std::rotr(ta, 22);
      const std::uint32_t maj = (ta & tb) ^ (ta & tc) ^ (tb & tc);
      const std::uint32_t temp2 = s0 + maj;
      th = tg;
      tg = tf;
      tf = te;
      te = td + temp1;
      td = tc;
      tc = tb;
      tb = ta;
      ta = temp1 + temp2;
    }
    a += ta;
    b += tb;
    c += tc;
    d += td;
    e += te;
    f += tf;
    g += tg;
    h += th;
  }
  state_[0] = a;
  state_[1] = b;
  state_[2] = c;
  state_[3] = d;
  state_[4] = e;
  state_[5] = f;
  state_[6] = g;
  state_[7] = h;
}

void Sha256::update(ByteSpan data) {
  bit_len_ += static_cast<std::uint64_t>(data.size()) * 8;
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t need = 64 - buffer_len_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      process_blocks(buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  if (offset + 64 <= data.size()) {
    const std::size_t nblocks = (data.size() - offset) / 64;
    process_blocks(data.data() + offset, nblocks);
    offset += nblocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Sha256Digest Sha256::finalize() {
  // Append 0x80, pad with zeros, then the 64-bit big-endian length.
  std::array<std::uint8_t, 72> pad{};
  pad[0] = 0x80;
  const std::size_t rem = buffer_len_;
  const std::size_t pad_len = (rem < 56) ? 56 - rem : 120 - rem;
  std::array<std::uint8_t, 8> len_be{};
  for (int i = 0; i < 8; ++i) {
    len_be[7 - i] = static_cast<std::uint8_t>(bit_len_ >> (i * 8));
  }
  update(ByteSpan(pad.data(), pad_len));
  update(ByteSpan(len_be.data(), len_be.size()));

  Sha256Digest d;
  for (int i = 0; i < 8; ++i) {
    d.bytes[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    d.bytes[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    d.bytes[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    d.bytes[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return d;
}

}  // namespace hyrd::common
