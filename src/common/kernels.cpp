#include "common/kernels.hpp"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define KDD_ARCH_X86 1
#elif defined(__aarch64__)
#include <arm_neon.h>
#define KDD_ARCH_NEON 1
#endif

namespace kdd::kern {

namespace {

// ---------------------------------------------------------------------------
// GF(2^8) tables (polynomial 0x11d, generator 2 — must match raid/gf256.cpp)
// ---------------------------------------------------------------------------

struct GfTables {
  std::uint8_t exp[512];
  std::uint8_t log[256];
  // Split-nibble product tables: nib_lo[c][x] = c * x, nib_hi[c][x] = c * (x<<4).
  alignas(64) std::uint8_t nib_lo[256][16];
  alignas(64) std::uint8_t nib_hi[256][16];
  // Full product rows for the scalar tier: row[c][s] = c * s.
  alignas(64) std::uint8_t row[256][256];

  GfTables() {
    std::uint8_t x = 1;
    for (unsigned i = 0; i < 255; ++i) {
      exp[i] = x;
      exp[i + 255] = x;
      log[x] = static_cast<std::uint8_t>(i);
      const bool carry = (x & 0x80) != 0;
      x = static_cast<std::uint8_t>(x << 1);
      if (carry) x = static_cast<std::uint8_t>(x ^ 0x1d);
    }
    exp[510] = exp[0];
    exp[511] = exp[1];
    log[0] = 0;  // never consulted for zero
    for (unsigned c = 0; c < 256; ++c) {
      for (unsigned n = 0; n < 16; ++n) {
        nib_lo[c][n] = mul(static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(n));
        nib_hi[c][n] = mul(static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(n << 4));
      }
      for (unsigned s = 0; s < 256; ++s) {
        row[c][s] = static_cast<std::uint8_t>(nib_lo[c][s & 0x0f] ^ nib_hi[c][s >> 4]);
      }
    }
  }

  std::uint8_t mul(std::uint8_t a, std::uint8_t b) const {
    if (a == 0 || b == 0) return 0;
    return exp[static_cast<unsigned>(log[a]) + log[b]];
  }
};

const GfTables& gf() {
  static const GfTables t;
  return t;
}

// ---------------------------------------------------------------------------
// Scalar tier (word-at-a-time; memcpy keeps unaligned access well-defined)
// ---------------------------------------------------------------------------

void xor_into_scalar(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t d;
    std::uint64_t s;
    std::memcpy(&d, dst + i, sizeof d);
    std::memcpy(&s, src + i, sizeof s);
    d ^= s;
    std::memcpy(dst + i, &d, sizeof d);
  }
  for (; i < n; ++i) dst[i] = static_cast<std::uint8_t>(dst[i] ^ src[i]);
}

void xor_pages3_scalar(std::uint8_t* dst, const std::uint8_t* a,
                       const std::uint8_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, a + i, sizeof x);
    std::memcpy(&y, b + i, sizeof y);
    x ^= y;
    std::memcpy(dst + i, &x, sizeof x);
  }
  for (; i < n; ++i) dst[i] = static_cast<std::uint8_t>(a[i] ^ b[i]);
}

bool all_zero_scalar(const std::uint8_t* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof w);
    if (w != 0) return false;
  }
  for (; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

void mul_acc_scalar(std::uint8_t* dst, std::uint8_t c, const std::uint8_t* src,
                    std::size_t n) {
  const std::uint8_t* row = gf().row[c];
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(dst[i] ^ row[src[i]]);
  }
}

// ---------------------------------------------------------------------------
// x86 tiers
// ---------------------------------------------------------------------------

#if defined(KDD_ARCH_X86)

// SSE2 is part of the x86-64 baseline ABI: no target attribute needed.
void xor_into_sse2(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    for (std::size_t k = 0; k < 64; k += 16) {
      const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i + k));
      const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i + k));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i + k), _mm_xor_si128(d, s));
    }
  }
  for (; i + 16 <= n; i += 16) {
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(d, s));
  }
  if (i < n) xor_into_scalar(dst + i, src + i, n - i);
}

void xor_pages3_sse2(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i y = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_xor_si128(x, y));
  }
  if (i < n) xor_pages3_scalar(dst + i, a + i, b + i, n - i);
}

bool all_zero_sse2(const std::uint8_t* p, std::size_t n) {
  const __m128i zero = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    if (_mm_movemask_epi8(_mm_cmpeq_epi8(v, zero)) != 0xffff) return false;
  }
  return i >= n || all_zero_scalar(p + i, n - i);
}

__attribute__((target("ssse3"))) void mul_acc_ssse3(std::uint8_t* dst, std::uint8_t c,
                                                    const std::uint8_t* src,
                                                    std::size_t n) {
  const GfTables& t = gf();
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_lo[c]));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_hi[c]));
  const __m128i mask = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(dst + i));
    const __m128i pl = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
    const __m128i ph =
        _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi16(s, 4), mask));
    d = _mm_xor_si128(d, _mm_xor_si128(pl, ph));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), d);
  }
  if (i < n) mul_acc_scalar(dst + i, c, src + i, n - i);
}

__attribute__((target("avx2"))) void xor_into_avx2(std::uint8_t* dst,
                                                   const std::uint8_t* src,
                                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_xor_si256(d, s));
  }
  if (i < n) xor_into_sse2(dst + i, src + i, n - i);
}

__attribute__((target("avx2"))) void xor_pages3_avx2(std::uint8_t* dst,
                                                     const std::uint8_t* a,
                                                     const std::uint8_t* b,
                                                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i y = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_xor_si256(x, y));
  }
  if (i < n) xor_pages3_sse2(dst + i, a + i, b + i, n - i);
}

__attribute__((target("avx2"))) bool all_zero_avx2(const std::uint8_t* p,
                                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    if (!_mm256_testz_si256(v, v)) return false;
  }
  return i >= n || all_zero_sse2(p + i, n - i);
}

__attribute__((target("avx2"))) void mul_acc_avx2(std::uint8_t* dst, std::uint8_t c,
                                                  const std::uint8_t* src,
                                                  std::size_t n) {
  const GfTables& t = gf();
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_lo[c])));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.nib_hi[c])));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    __m256i d = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i pl = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
    const __m256i ph =
        _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi16(s, 4), mask));
    d = _mm256_xor_si256(d, _mm256_xor_si256(pl, ph));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), d);
  }
  if (i < n) mul_acc_ssse3(dst + i, c, src + i, n - i);
}

#endif  // KDD_ARCH_X86

// ---------------------------------------------------------------------------
// NEON tier
// ---------------------------------------------------------------------------

#if defined(KDD_ARCH_NEON)

void xor_into_neon(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(dst + i), vld1q_u8(src + i)));
  }
  if (i < n) xor_into_scalar(dst + i, src + i, n - i);
}

void xor_pages3_neon(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
                     std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vst1q_u8(dst + i, veorq_u8(vld1q_u8(a + i), vld1q_u8(b + i)));
  }
  if (i < n) xor_pages3_scalar(dst + i, a + i, b + i, n - i);
}

bool all_zero_neon(const std::uint8_t* p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t v = vld1q_u8(p + i);
    if (vmaxvq_u8(v) != 0) return false;
  }
  return i >= n || all_zero_scalar(p + i, n - i);
}

void mul_acc_neon(std::uint8_t* dst, std::uint8_t c, const std::uint8_t* src,
                  std::size_t n) {
  const GfTables& t = gf();
  const uint8x16_t lo = vld1q_u8(t.nib_lo[c]);
  const uint8x16_t hi = vld1q_u8(t.nib_hi[c]);
  const uint8x16_t mask = vdupq_n_u8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t s = vld1q_u8(src + i);
    uint8x16_t d = vld1q_u8(dst + i);
    const uint8x16_t pl = vqtbl1q_u8(lo, vandq_u8(s, mask));
    const uint8x16_t ph = vqtbl1q_u8(hi, vshrq_n_u8(s, 4));
    d = veorq_u8(d, veorq_u8(pl, ph));
    vst1q_u8(dst + i, d);
  }
  if (i < n) mul_acc_scalar(dst + i, c, src + i, n - i);
}

#endif  // KDD_ARCH_NEON

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

bool tier_supported(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return true;
    case Tier::kSse2:
    case Tier::kAvx2:
#if defined(KDD_ARCH_X86)
      // The SSE tier needs SSSE3 for PSHUFB (universal on x86-64 since ~2006).
      if (t == Tier::kSse2) return __builtin_cpu_supports("ssse3") != 0;
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Tier::kNeon:
#if defined(KDD_ARCH_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Tier detect_tier() {
  if (const char* force = std::getenv("KDD_FORCE_SCALAR");
      force != nullptr && force[0] != '\0' && force[0] != '0') {
    return Tier::kScalar;
  }
  if (const char* name = std::getenv("KDD_KERNEL_TIER")) {
    const std::string s(name);
    Tier want = Tier::kScalar;
    bool known = true;
    if (s == "scalar") want = Tier::kScalar;
    else if (s == "sse2") want = Tier::kSse2;
    else if (s == "avx2") want = Tier::kAvx2;
    else if (s == "neon") want = Tier::kNeon;
    else known = false;
    if (known && tier_supported(want)) return want;
  }
#if defined(KDD_ARCH_NEON)
  return Tier::kNeon;
#else
  if (tier_supported(Tier::kAvx2)) return Tier::kAvx2;
  if (tier_supported(Tier::kSse2)) return Tier::kSse2;
  return Tier::kScalar;
#endif
}

Tier& tier_ref() {
  static Tier t = detect_tier();
  return t;
}

}  // namespace

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kScalar: return "scalar";
    case Tier::kSse2: return "sse2";
    case Tier::kAvx2: return "avx2";
    case Tier::kNeon: return "neon";
  }
  return "?";
}

Tier active_tier() { return tier_ref(); }

Tier widest_supported_tier() {
#if defined(KDD_ARCH_NEON)
  return Tier::kNeon;
#else
  if (tier_supported(Tier::kAvx2)) return Tier::kAvx2;
  if (tier_supported(Tier::kSse2)) return Tier::kSse2;
  return Tier::kScalar;
#endif
}

bool set_tier(Tier t) {
  if (!tier_supported(t)) return false;
  tier_ref() = t;
  return true;
}

void xor_into(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  switch (tier_ref()) {
#if defined(KDD_ARCH_X86)
    case Tier::kAvx2: xor_into_avx2(dst, src, n); return;
    case Tier::kSse2: xor_into_sse2(dst, src, n); return;
#elif defined(KDD_ARCH_NEON)
    case Tier::kNeon: xor_into_neon(dst, src, n); return;
#endif
    default: xor_into_scalar(dst, src, n); return;
  }
}

void xor_pages3(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
                std::size_t n) {
  switch (tier_ref()) {
#if defined(KDD_ARCH_X86)
    case Tier::kAvx2: xor_pages3_avx2(dst, a, b, n); return;
    case Tier::kSse2: xor_pages3_sse2(dst, a, b, n); return;
#elif defined(KDD_ARCH_NEON)
    case Tier::kNeon: xor_pages3_neon(dst, a, b, n); return;
#endif
    default: xor_pages3_scalar(dst, a, b, n); return;
  }
}

bool all_zero(const std::uint8_t* p, std::size_t n) {
  switch (tier_ref()) {
#if defined(KDD_ARCH_X86)
    case Tier::kAvx2: return all_zero_avx2(p, n);
    case Tier::kSse2: return all_zero_sse2(p, n);
#elif defined(KDD_ARCH_NEON)
    case Tier::kNeon: return all_zero_neon(p, n);
#endif
    default: return all_zero_scalar(p, n);
  }
}

void gf256_mul_acc(std::uint8_t* dst, std::uint8_t c, const std::uint8_t* src,
                   std::size_t n) {
  if (c == 0) return;
  if (c == 1) {
    xor_into(dst, src, n);
    return;
  }
  switch (tier_ref()) {
#if defined(KDD_ARCH_X86)
    case Tier::kAvx2: mul_acc_avx2(dst, c, src, n); return;
    case Tier::kSse2: mul_acc_ssse3(dst, c, src, n); return;
#elif defined(KDD_ARCH_NEON)
    case Tier::kNeon: mul_acc_neon(dst, c, src, n); return;
#endif
    default: mul_acc_scalar(dst, c, src, n); return;
  }
}

// ---------------------------------------------------------------------------
// Page hash
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint64_t kHashMulA = 0x9e3779b97f4a7c15ull;  // both odd, so
constexpr std::uint64_t kHashMulB = 0xc2b2ae3d27d4eb4full;  // x -> x*k is 1:1

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// One lane step: a bijection of `word` for a fixed lane, and of the lane
/// for a fixed word, so a changed word always yields a changed lane.
std::uint64_t absorb(std::uint64_t lane, std::uint64_t word) {
  return std::rotl(lane + word * kHashMulB, 31) * kHashMulA;
}

}  // namespace

std::uint64_t page_hash(std::uint64_t seed, std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  const std::size_t n = bytes.size();
  // Four independent lanes keep four multiply chains in flight.
  std::uint64_t l0 = seed;
  std::uint64_t l1 = seed + kHashMulA;
  std::uint64_t l2 = seed + 2 * kHashMulA;
  std::uint64_t l3 = seed + 3 * kHashMulA;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    l0 = absorb(l0, load64(p + i));
    l1 = absorb(l1, load64(p + i + 8));
    l2 = absorb(l2, load64(p + i + 16));
    l3 = absorb(l3, load64(p + i + 24));
  }
  for (; i + 8 <= n; i += 8) l0 = absorb(l0, load64(p + i));
  if (i < n) {
    std::uint64_t tail = 0;  // zero-padded; the length below tells pads apart
    std::memcpy(&tail, p + i, n - i);
    l1 = absorb(l1, tail);
  }
  // Fold the lanes in a fixed order (each fold is 1:1 in its lane), then
  // avalanche with the murmur3 finaliser, itself a bijection.
  std::uint64_t h = absorb(static_cast<std::uint64_t>(n), l0);
  h = absorb(h, l1);
  h = absorb(h, l2);
  h = absorb(h, l3);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

// ---------------------------------------------------------------------------
// Reference implementations
// ---------------------------------------------------------------------------

namespace ref {

void xor_into(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<std::uint8_t>(dst[i] ^ src[i]);
}

void xor_pages3(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<std::uint8_t>(a[i] ^ b[i]);
}

bool all_zero(const std::uint8_t* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

void gf256_mul_acc(std::uint8_t* dst, std::uint8_t c, const std::uint8_t* src,
                   std::size_t n) {
  if (c == 0) return;
  const GfTables& t = gf();
  if (c == 1) {
    for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<std::uint8_t>(dst[i] ^ src[i]);
    return;
  }
  const unsigned lc = t.log[c];
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t s = src[i];
    if (s != 0) dst[i] = static_cast<std::uint8_t>(dst[i] ^ t.exp[lc + t.log[s]]);
  }
}

std::uint8_t gf256_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t r = 0;
  while (b != 0) {
    if (b & 1) r = static_cast<std::uint8_t>(r ^ a);
    const bool hi = (a & 0x80) != 0;
    a = static_cast<std::uint8_t>(a << 1);
    if (hi) a = static_cast<std::uint8_t>(a ^ 0x1d);
    b = static_cast<std::uint8_t>(b >> 1);
  }
  return r;
}

}  // namespace ref

}  // namespace kdd::kern
