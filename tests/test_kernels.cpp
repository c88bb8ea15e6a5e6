// Equivalence suite for the dispatched bulk kernels (common/kernels.hpp).
//
// Every supported dispatch tier must be bit-exact against the naive scalar
// references across awkward sizes (sub-word, sub-vector, vector-multiple,
// off-by-one) and unaligned base addresses — SIMD tails and head-alignment
// handling are where bulk kernels classically go wrong. The undispatched
// page hash is checked for what a media checksum must detect instead.
#include "common/kernels.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace kdd {
namespace {

using kern::Tier;

constexpr std::size_t kSizes[] = {1, 7, 64, 4095, 4096};
constexpr std::size_t kOffsets[] = {0, 1, 3, 13};  // misalign the buffers
constexpr std::uint8_t kCoeffs[] = {0x00, 0x01, 0x02, 0x1d, 0x37, 0x80, 0xff};

std::vector<Tier> supported_tiers() {
  std::vector<Tier> tiers{Tier::kScalar};
  for (const Tier t : {Tier::kSse2, Tier::kAvx2, Tier::kNeon}) {
    if (kern::set_tier(t)) tiers.push_back(t);
  }
  kern::set_tier(kern::widest_supported_tier());
  return tiers;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
  return v;
}

class KernelTierTest : public ::testing::TestWithParam<Tier> {
 protected:
  void SetUp() override {
    if (!kern::set_tier(GetParam())) {
      GTEST_SKIP() << "tier " << kern::tier_name(GetParam())
                   << " not supported on this CPU";
    }
  }
  void TearDown() override { kern::set_tier(kern::widest_supported_tier()); }
};

TEST_P(KernelTierTest, XorIntoMatchesReference) {
  for (const std::size_t n : kSizes) {
    for (const std::size_t off : kOffsets) {
      const auto src = random_bytes(n + off, 17 * n + off);
      auto dst = random_bytes(n + off, 31 * n + off);
      auto expect = dst;
      kern::ref::xor_into(expect.data() + off, src.data() + off, n);
      kern::xor_into(dst.data() + off, src.data() + off, n);
      ASSERT_EQ(dst, expect) << "n=" << n << " off=" << off;
    }
  }
}

TEST_P(KernelTierTest, XorPages3MatchesReference) {
  for (const std::size_t n : kSizes) {
    for (const std::size_t off : kOffsets) {
      const auto a = random_bytes(n + off, 7 * n + off);
      const auto b = random_bytes(n + off, 11 * n + off);
      auto dst = random_bytes(n + off, 13 * n + off);
      auto expect = dst;
      kern::ref::xor_pages3(expect.data() + off, a.data() + off, b.data() + off, n);
      kern::xor_pages3(dst.data() + off, a.data() + off, b.data() + off, n);
      ASSERT_EQ(dst, expect) << "n=" << n << " off=" << off;
    }
  }
}

TEST_P(KernelTierTest, XorPages3ToleratesAliasing) {
  for (const std::size_t n : kSizes) {
    const auto a0 = random_bytes(n, 23 * n);
    const auto b = random_bytes(n, 29 * n);
    auto expect = std::vector<std::uint8_t>(n);
    kern::ref::xor_pages3(expect.data(), a0.data(), b.data(), n);
    auto dst = a0;  // dst aliases a
    kern::xor_pages3(dst.data(), dst.data(), b.data(), n);
    ASSERT_EQ(dst, expect) << "n=" << n << " (dst == a)";
    dst = b;  // dst aliases b
    kern::xor_pages3(dst.data(), a0.data(), dst.data(), n);
    ASSERT_EQ(dst, expect) << "n=" << n << " (dst == b)";
  }
}

TEST_P(KernelTierTest, AllZeroMatchesReference) {
  for (const std::size_t n : kSizes) {
    for (const std::size_t off : kOffsets) {
      std::vector<std::uint8_t> buf(n + off, 0);
      ASSERT_TRUE(kern::all_zero(buf.data() + off, n)) << "n=" << n;
      // Flip one byte at a time through a spread of positions, including the
      // very first and very last byte (head/tail handling).
      for (const std::size_t flip :
           {std::size_t{0}, n / 3, n / 2, n - 1}) {
        buf[off + flip] = 0x40;
        ASSERT_EQ(kern::all_zero(buf.data() + off, n),
                  kern::ref::all_zero(buf.data() + off, n));
        ASSERT_FALSE(kern::all_zero(buf.data() + off, n))
            << "n=" << n << " flip=" << flip;
        buf[off + flip] = 0;
      }
    }
  }
}

TEST_P(KernelTierTest, Gf256MulAccMatchesReference) {
  for (const std::size_t n : kSizes) {
    for (const std::size_t off : kOffsets) {
      for (const std::uint8_t c : kCoeffs) {
        const auto src = random_bytes(n + off, 41 * n + off + c);
        auto dst = random_bytes(n + off, 43 * n + off + c);
        auto expect = dst;
        kern::ref::gf256_mul_acc(expect.data() + off, c, src.data() + off, n);
        kern::gf256_mul_acc(dst.data() + off, c, src.data() + off, n);
        ASSERT_EQ(dst, expect)
            << "n=" << n << " off=" << off << " c=" << unsigned(c);
      }
    }
  }
}

TEST_P(KernelTierTest, Gf256MulAccMatchesPeasantMultiply) {
  // Cross-check the table construction itself against a table-free
  // Russian-peasant multiply, for every coefficient over one page.
  const auto src = random_bytes(kPageSize, 97);
  std::vector<std::uint8_t> dst(kPageSize, 0);
  std::vector<std::uint8_t> expect(kPageSize);
  for (unsigned c = 0; c < 256; c += 5) {  // sampled: full sweep is slow
    std::memset(dst.data(), 0, dst.size());
    for (std::size_t i = 0; i < kPageSize; ++i) {
      expect[i] = kern::ref::gf256_mul(static_cast<std::uint8_t>(c), src[i]);
    }
    kern::gf256_mul_acc(dst.data(), static_cast<std::uint8_t>(c), src.data(),
                        kPageSize);
    ASSERT_EQ(dst, expect) << "c=" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(AllTiers, KernelTierTest,
                         ::testing::ValuesIn(supported_tiers()),
                         [](const ::testing::TestParamInfo<Tier>& param_info) {
                           return kern::tier_name(param_info.param);
                         });

TEST(KernelDispatch, WidestTierIsSupported) {
  EXPECT_TRUE(kern::set_tier(kern::widest_supported_tier()));
  EXPECT_EQ(kern::active_tier(), kern::widest_supported_tier());
}

TEST(KernelDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(kern::set_tier(Tier::kScalar));
  EXPECT_EQ(kern::active_tier(), Tier::kScalar);
  kern::set_tier(kern::widest_supported_tier());
}

TEST(KernelDispatch, UnsupportedTierIsRejected) {
#if defined(KDD_ARCH_NEON)
  const Tier unsupported = Tier::kAvx2;
#else
  const Tier unsupported = Tier::kNeon;
#endif
  const Tier before = kern::active_tier();
  EXPECT_FALSE(kern::set_tier(unsupported));
  EXPECT_EQ(kern::active_tier(), before);
}

TEST(KernelDispatch, BytesWrappersRouteThroughKernels) {
  // The span-level helpers in common/bytes.hpp must agree with the raw
  // kernels (they are the entry point the RAID/delta layers actually use).
  const Page a = [] {
    Page p(kPageSize);
    Rng rng(5);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.next_u64());
    return p;
  }();
  Page b = make_page();
  xor_into(b, a);
  EXPECT_EQ(b, a);  // 0 ^ a == a
  Page c(kPageSize);
  xor_pages3(c, a, b);
  EXPECT_TRUE(all_zero(c));  // a ^ a == 0
}

// ---- Page hash (one portable implementation, no tiers) ----------------------

TEST(PageHash, EverySingleBitFlipChangesTheHash) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    std::vector<std::uint8_t> page = random_bytes(kPageSize, 100 + seed);
    const std::uint64_t clean = kern::page_hash(kern::kPageHashSeed, page);
    for (std::size_t bit = 0; bit < kPageSize * 8; ++bit) {
      const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
      page[bit / 8] ^= mask;
      ASSERT_NE(kern::page_hash(kern::kPageHashSeed, page), clean)
          << "page seed " << seed << ", bit " << bit;
      page[bit / 8] ^= mask;
    }
  }
}

TEST(PageHash, EverySectorTearChangesTheHash) {
  // A torn write persists 1-7 leading 512 B sectors of the new version B
  // over the old version A; the stored tag is B's, and A's must not match
  // either.
  constexpr std::size_t kSector = 512;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::vector<std::uint8_t> a = random_bytes(kPageSize, 200 + seed);
    const std::vector<std::uint8_t> b = random_bytes(kPageSize, 300 + seed);
    const std::uint64_t ha = kern::page_hash(kern::kPageHashSeed, a);
    const std::uint64_t hb = kern::page_hash(kern::kPageHashSeed, b);
    for (std::size_t sectors = 1; sectors < kPageSize / kSector; ++sectors) {
      std::vector<std::uint8_t> torn = a;
      std::memcpy(torn.data(), b.data(), sectors * kSector);
      const std::uint64_t ht = kern::page_hash(kern::kPageHashSeed, torn);
      EXPECT_NE(ht, ha) << "seed " << seed << ", " << sectors << " sectors";
      EXPECT_NE(ht, hb) << "seed " << seed << ", " << sectors << " sectors";
    }
  }
}

TEST(PageHash, ChainingIsOrderSensitive) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::vector<std::uint8_t> a = random_bytes(kPageSize, 400 + seed);
    const std::vector<std::uint8_t> b = random_bytes(kPageSize, 500 + seed);
    const std::uint64_t s = kern::page_hash(kern::kPageHashSeed, random_bytes(8, seed));
    EXPECT_NE(kern::page_hash(kern::page_hash(s, a), b),
              kern::page_hash(kern::page_hash(s, b), a))
        << "seed " << seed;
  }
}

TEST(PageHash, SeedAndLengthBothCount) {
  // Segment headers hash short spans of any length: the chain seed and the
  // byte count must both matter. 41 and 42 bytes both end in a zero-padded
  // partial word, which reads the same for a trailing zero byte and none.
  const std::vector<std::uint8_t> bytes = random_bytes(41, 7);
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(0);
  EXPECT_NE(kern::page_hash(1, bytes), kern::page_hash(2, bytes));
  EXPECT_NE(kern::page_hash(1, bytes), kern::page_hash(1, padded));
  EXPECT_NE(kern::page_hash(1, {}), kern::page_hash(2, {}));
  for (const std::size_t n : kSizes) {
    const std::vector<std::uint8_t> v = random_bytes(n, n);
    EXPECT_EQ(kern::page_hash(3, v), kern::page_hash(3, v)) << "size " << n;
  }
}

}  // namespace
}  // namespace kdd
