#include "erasure/gf256.h"

#include <gtest/gtest.h>

namespace hyrd::erasure {
namespace {

const GF256& gf() { return GF256::instance(); }

TEST(GF256, AddIsXor) {
  EXPECT_EQ(gf().add(0x57, 0x83), 0x57 ^ 0x83);
  EXPECT_EQ(gf().sub(0x57, 0x83), 0x57 ^ 0x83);
}

TEST(GF256, MulByZeroAndOne) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(gf().mul(static_cast<std::uint8_t>(a), 0), 0);
    EXPECT_EQ(gf().mul(0, static_cast<std::uint8_t>(a)), 0);
    EXPECT_EQ(gf().mul(static_cast<std::uint8_t>(a), 1), a);
  }
}

TEST(GF256, MulCommutative) {
  for (int a = 1; a < 256; a += 7) {
    for (int b = 1; b < 256; b += 11) {
      EXPECT_EQ(gf().mul(static_cast<std::uint8_t>(a),
                         static_cast<std::uint8_t>(b)),
                gf().mul(static_cast<std::uint8_t>(b),
                         static_cast<std::uint8_t>(a)));
    }
  }
}

TEST(GF256, MulAssociative) {
  for (int a = 1; a < 256; a += 31) {
    for (int b = 1; b < 256; b += 37) {
      for (int c = 1; c < 256; c += 41) {
        const auto ua = static_cast<std::uint8_t>(a);
        const auto ub = static_cast<std::uint8_t>(b);
        const auto uc = static_cast<std::uint8_t>(c);
        EXPECT_EQ(gf().mul(gf().mul(ua, ub), uc),
                  gf().mul(ua, gf().mul(ub, uc)));
      }
    }
  }
}

TEST(GF256, DistributiveOverAdd) {
  for (int a = 1; a < 256; a += 13) {
    for (int b = 0; b < 256; b += 17) {
      for (int c = 0; c < 256; c += 19) {
        const auto ua = static_cast<std::uint8_t>(a);
        const auto ub = static_cast<std::uint8_t>(b);
        const auto uc = static_cast<std::uint8_t>(c);
        EXPECT_EQ(gf().mul(ua, gf().add(ub, uc)),
                  gf().add(gf().mul(ua, ub), gf().mul(ua, uc)));
      }
    }
  }
}

TEST(GF256, InverseProperty) {
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf().mul(ua, gf().inv(ua)), 1) << "a=" << a;
  }
}

TEST(GF256, DivUndoesMul) {
  for (int a = 0; a < 256; a += 5) {
    for (int b = 1; b < 256; b += 9) {
      const auto ua = static_cast<std::uint8_t>(a);
      const auto ub = static_cast<std::uint8_t>(b);
      EXPECT_EQ(gf().div(gf().mul(ua, ub), ub), ua);
    }
  }
}

TEST(GF256, PowMatchesRepeatedMul) {
  for (int a = 2; a < 256; a += 51) {
    const auto ua = static_cast<std::uint8_t>(a);
    std::uint8_t acc = 1;
    for (unsigned n = 0; n < 10; ++n) {
      EXPECT_EQ(gf().pow(ua, n), acc);
      acc = gf().mul(acc, ua);
    }
  }
}

TEST(GF256, PowEdgeCases) {
  EXPECT_EQ(gf().pow(0, 0), 1);  // 0^0 convention
  EXPECT_EQ(gf().pow(0, 5), 0);
  EXPECT_EQ(gf().pow(1, 1000), 1);
}

TEST(GF256, MulAddRegionMatchesScalar) {
  common::Bytes src = common::patterned(257, 1);
  common::Bytes dst = common::patterned(257, 2);
  common::Bytes expected = dst;
  const std::uint8_t c = 0x8E;
  for (std::size_t i = 0; i < src.size(); ++i) {
    expected[i] ^= gf().mul(c, src[i]);
  }
  gf().mul_add_region(dst, src, c);
  EXPECT_EQ(dst, expected);
}

TEST(GF256, MulAddRegionZeroCoefficientIsNoop) {
  common::Bytes src = common::patterned(64, 1);
  common::Bytes dst = common::patterned(64, 2);
  const common::Bytes before = dst;
  gf().mul_add_region(dst, src, 0);
  EXPECT_EQ(dst, before);
}

TEST(GF256, MulAddRegionOneCoefficientIsXor) {
  common::Bytes src = common::patterned(64, 1);
  common::Bytes dst = common::patterned(64, 2);
  common::Bytes expected = dst;
  for (std::size_t i = 0; i < 64; ++i) expected[i] ^= src[i];
  gf().mul_add_region(dst, src, 1);
  EXPECT_EQ(dst, expected);
}

TEST(GF256, MulRegionMatchesScalar) {
  common::Bytes src = common::patterned(100, 3);
  common::Bytes dst(100, 0);
  gf().mul_region(dst, src, 0x1D);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(dst[i], gf().mul(0x1D, src[i]));
  }
}

// ---- Wide-word kernel vs scalar reference property tests ----
//
// The wide paths (uint64 / SSSE3 / AVX2, whichever the host dispatched)
// must be bit-identical to the retained byte-at-a-time reference for
// every length — including 0, sub-word tails, and unaligned base
// pointers, which is where vectorized head/tail handling goes wrong.

TEST(GF256, MulAddRegionWideMatchesReferenceAllSizes) {
  constexpr std::size_t kMaxLen = 1025;
  constexpr std::size_t kMargin = 8;
  const common::Bytes src_base = common::patterned(kMaxLen + kMargin, 17);
  const common::Bytes dst_base = common::patterned(kMaxLen + kMargin, 91);
  const std::uint8_t coeffs[] = {0x02, 0x1D, 0x57, 0x8E, 0xFF};
  for (const std::uint8_t c : coeffs) {
    for (const std::size_t off : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{5}}) {
      for (std::size_t len = 0; len <= kMaxLen - off; ++len) {
        common::Bytes got(dst_base.begin(), dst_base.end());
        common::Bytes want = got;
        gf().mul_add_region(
            common::MutByteSpan(got.data() + off, len),
            common::ByteSpan(src_base.data() + off, len), c);
        gf().mul_add_region_scalar(
            common::MutByteSpan(want.data() + off, len),
            common::ByteSpan(src_base.data() + off, len), c);
        ASSERT_EQ(got, want) << "c=" << int(c) << " off=" << off
                             << " len=" << len;
      }
    }
  }
}

TEST(GF256, MulRegionWideMatchesReferenceAllSizes) {
  constexpr std::size_t kMaxLen = 1025;
  const common::Bytes src_base = common::patterned(kMaxLen + 8, 23);
  const std::uint8_t coeffs[] = {0x03, 0x8E, 0xC4};
  for (const std::uint8_t c : coeffs) {
    for (const std::size_t off : {std::size_t{0}, std::size_t{1},
                                  std::size_t{5}}) {
      for (std::size_t len = 0; len <= kMaxLen - off; ++len) {
        common::Bytes got(len, 0xAB);
        common::Bytes want(len, 0xAB);
        gf().mul_region(got, common::ByteSpan(src_base.data() + off, len), c);
        gf().mul_region_scalar(
            want, common::ByteSpan(src_base.data() + off, len), c);
        ASSERT_EQ(got, want) << "c=" << int(c) << " off=" << off
                             << " len=" << len;
      }
    }
  }
}

TEST(GF256, MulRegionMultiMatchesSequentialApplication) {
  // The fused kernel equals one mul_add_region per source into zeroes. It
  // never reads dst, so stale bytes must not leak in, and longer sources
  // contribute only their first dst.size() bytes.
  for (const std::size_t k :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{1}, std::size_t{255}, std::size_t{4096},
          std::size_t{9000}}) {
      std::vector<common::Bytes> shards;
      std::vector<common::ByteSpan> srcs;
      std::vector<std::uint8_t> coeffs;
      for (std::size_t i = 0; i < k; ++i) {
        shards.push_back(common::patterned(len + 7, i + 2));
        coeffs.push_back(static_cast<std::uint8_t>(7 * i + 1));
      }
      for (const auto& s : shards) srcs.emplace_back(s);
      common::Bytes want(len, 0);
      for (std::size_t i = 0; i < k; ++i) {
        gf().mul_add_region(want, srcs[i].first(len), coeffs[i]);
      }
      common::Bytes got(len, 0xA5);
      gf().mul_region_multi(got, srcs, coeffs.data());
      ASSERT_EQ(got, want) << "k=" << k << " len=" << len;
    }
  }
}

TEST(GF256, RegionKernelNameIsReported) {
  // Smoke check for the dispatcher: some kernel must have been chosen.
  EXPECT_FALSE(GF256::region_kernel_name().empty());
}

}  // namespace
}  // namespace hyrd::erasure
