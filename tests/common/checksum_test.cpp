#include "common/checksum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace hyrd::common {
namespace {

TEST(Crc32c, KnownVector) {
  // RFC 3720 test vector: CRC32C("123456789") = 0xE3069283.
  const Bytes data = bytes_of("123456789");
  EXPECT_EQ(crc32c(data), 0xE3069283u);
}

TEST(Crc32c, EmptyInputIsZero) { EXPECT_EQ(crc32c({}), 0u); }

TEST(Crc32c, AllZeros32) {
  const Bytes data(32, 0);
  EXPECT_EQ(crc32c(data), 0x8A9136AAu);  // RFC 3720 vector
}

TEST(Crc32c, AllOnes32) {
  const Bytes data(32, 0xFF);
  EXPECT_EQ(crc32c(data), 0x62A8AB43u);  // RFC 3720 vector
}

TEST(Crc32c, DetectsSingleBitFlip) {
  Bytes data = patterned(4096, 7);
  const std::uint32_t clean = crc32c(data);
  data[1234] ^= 0x01;
  EXPECT_NE(crc32c(data), clean);
}

TEST(Crc32c, DifferentSeedsDiffer) {
  const Bytes data = patterned(128, 3);
  EXPECT_NE(crc32c(data, 0), crc32c(data, 1));
}

TEST(Crc32c, Incrementing32) {
  Bytes data(32, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_EQ(crc32c(data), 0x46DD794Eu);  // RFC 3720 vector
}

TEST(Crc32c, Decrementing32) {
  Bytes data(32, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(crc32c(data), 0x113FDB5Cu);  // RFC 3720 vector
}

TEST(Crc32c, ChainingSplitsAnywhere) {
  // crc32c(a+b) == crc32c(b, seed=crc32c(a)) for every split point —
  // the property the pipelined writer relies on when it checksums
  // fragments independently of the whole object.
  const Bytes data = patterned(611, 29);
  const std::uint32_t whole = crc32c(data);
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    const std::uint32_t head = crc32c(ByteSpan(data.data(), split));
    const std::uint32_t chained =
        crc32c(ByteSpan(data.data() + split, data.size() - split), head);
    EXPECT_EQ(chained, whole) << "split=" << split;
  }
}

// Lengths that cross every block boundary of the interleaved kernel: all
// of 0..1025, then every length within 9 bytes of each multiple of 768
// (3 x 256) and of 24 576 (3 x 8192), up to 2 x 24 576 + 64. Returned
// as runs of consecutive lengths.
std::vector<std::pair<std::size_t, std::size_t>> fold_boundary_runs() {
  constexpr std::size_t kMax = 2 * 24576 + 64;
  std::vector<std::pair<std::size_t, std::size_t>> runs{{0, 1025}};
  for (std::size_t m = 768; m + 9 <= kMax; m += 768) {
    runs.emplace_back(m - 9, m + 9);  // 24 576 is a multiple of 768
  }
  runs.emplace_back(kMax - 18, kMax);
  return runs;
}

// Checks `crc` against crc32c_reference over fold_boundary_runs() at all
// eight start alignments, seeded and unseeded. The reference runs once per
// run and is chained bytewise across it, so the check stays cheap.
void expect_matches_reference_across_folds(
    std::uint32_t (*crc)(ByteSpan, std::uint32_t)) {
  const auto runs = fold_boundary_runs();
  const Bytes base = patterned(runs.back().second + 8, 41);
  for (std::size_t off = 0; off < 8; ++off) {
    for (const std::uint32_t seed : {0u, 0xDEADBEEFu}) {
      for (const auto& [lo, hi] : runs) {
        std::uint32_t ref =
            crc32c_reference(ByteSpan(base.data() + off, lo), seed);
        for (std::size_t len = lo; len <= hi; ++len) {
          if (len > lo) {
            ref = crc32c_reference(ByteSpan(base.data() + off + len - 1, 1),
                                   ref);
          }
          ASSERT_EQ(crc(ByteSpan(base.data() + off, len), seed), ref)
              << "off=" << off << " len=" << len << " seed=" << seed;
        }
      }
    }
  }
}

TEST(Crc32c, WideMatchesReferenceAllLengths) {
  // The dispatched path (three interleaved CRC32 chains on SSE4.2 hosts)
  // must agree with the retained bytewise reference for every length and
  // alignment: the sub-8-byte head and tail cases and both sides of each
  // 3 x 256 and 3 x 8192 fold boundary.
  expect_matches_reference_across_folds(
      [](ByteSpan data, std::uint32_t seed) { return crc32c(data, seed); });
}

TEST(Crc32c, SlicingBy8MatchesReference) {
  // The path hosts without SSE4.2 run, tested directly on hosts with it.
  expect_matches_reference_across_folds(
      [](ByteSpan data, std::uint32_t seed) {
        return detail::crc32c_slicing8(data, seed);
      });
}

TEST(Crc32c, MultiMiBMatchesReference) {
  const Bytes data = patterned((9 << 19) + 13, 17);  // 4.5 MiB + 13
  EXPECT_EQ(crc32c(data), crc32c_reference(data));
  EXPECT_EQ(detail::crc32c_slicing8(data), crc32c_reference(data));
}

TEST(Crc32c, CombineMatchesDirectOverRandomSplits) {
  std::mt19937_64 rng(2015);
  const Bytes data = patterned((5 << 20) + 7, 23);
  const auto check = [&](std::size_t begin, std::size_t split,
                         std::size_t end) {
    const ByteSpan a(data.data() + begin, split - begin);
    const ByteSpan b(data.data() + split, end - split);
    const ByteSpan ab(data.data() + begin, end - begin);
    ASSERT_EQ(crc32c_combine(crc32c(a), crc32c(b), b.size()), crc32c(ab))
        << "begin=" << begin << " split=" << split << " end=" << end;
  };
  check(0, 0, 0);                  // both parts empty
  check(0, 0, 100);                // empty head
  check(0, 100, 100);              // len2 = 0
  check(0, data.size() / 3, data.size());  // multi-MiB on both sides
  check(0, 1, data.size());
  for (int i = 0; i < 200; ++i) {
    // Mostly short pieces; one draw in ten spans the whole input.
    const std::size_t window =
        i % 10 == 0 ? data.size()
                    : std::min(data.size(), std::size_t{1} << (rng() % 16));
    const std::size_t base = rng() % (data.size() - window + 1);
    std::array<std::size_t, 3> cut{};
    for (auto& c : cut) c = base + rng() % (window + 1);
    std::sort(cut.begin(), cut.end());
    check(cut[0], cut[1], cut[2]);
  }
}

TEST(Crc32c, ZeroExtendMatchesDirect) {
  EXPECT_EQ(crc32c_zero_extend(0, 0), 0u);
  EXPECT_EQ(crc32c_zero_extend(0, 32), 0x8A9136AAu);  // RFC 3720 vector
  const Bytes head = patterned(1000, 5);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{255}, std::size_t{256}, std::size_t{8193},
        std::size_t{24577}, std::size_t{3 << 20} + 5}) {
    for (const std::size_t h : {std::size_t{0}, std::size_t{1}, head.size()}) {
      Bytes padded(head.begin(), head.begin() + static_cast<std::ptrdiff_t>(h));
      padded.resize(h + n, 0);
      const std::uint32_t crc = crc32c(ByteSpan(head.data(), h));
      ASSERT_EQ(crc32c_zero_extend(crc, n), crc32c(padded))
          << "head=" << h << " n=" << n;
    }
  }
}

TEST(Fnv1a, MatchesKnownValues) {
  // Standard FNV-1a 64-bit vectors.
  EXPECT_EQ(fnv1a(std::string_view("")), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a(std::string_view("a")), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a(std::string_view("foobar")), 0x85944171f73967e8ull);
}

TEST(Fnv1a, BytesAndStringAgree) {
  const std::string s = "hello world";
  EXPECT_EQ(fnv1a(std::string_view(s)), fnv1a(bytes_of(s)));
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(Sha256::digest({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::digest(bytes_of("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, QuickBrownFox) {
  EXPECT_EQ(Sha256::digest(
                bytes_of("The quick brown fox jumps over the lazy dog"))
                .hex(),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256, TwoBlockMessage) {
  // 56 bytes forces the padding split across two blocks.
  EXPECT_EQ(
      Sha256::digest(bytes_of(
                         "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = patterned(10000, 99);
  Sha256 h;
  // Feed in awkward chunk sizes spanning block boundaries.
  std::size_t offset = 0;
  for (std::size_t chunk : {1u, 63u, 64u, 65u, 1000u, 8807u}) {
    const std::size_t take = std::min(chunk, data.size() - offset);
    h.update(ByteSpan(data.data() + offset, take));
    offset += take;
    if (offset == data.size()) break;
  }
  ASSERT_EQ(offset, data.size());
  EXPECT_EQ(h.finalize().hex(), Sha256::digest(data).hex());
}

TEST(Sha256, MillionAs) {
  const Bytes data(1000000, 'a');
  EXPECT_EQ(Sha256::digest(data).hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

}  // namespace
}  // namespace hyrd::common
