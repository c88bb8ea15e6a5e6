// Runtime-dispatched bulk kernels for the data-path primitives every figure
// in the paper is bottlenecked on: page XOR (parity + delta generation),
// GF(2^8) multiply-accumulate (RAID-6 Q parity) and the zero-page predicate
// (parity-skip checks). One portable kernel, page_hash (the emulated media's
// per-page checksum), is plain C++ with no dispatch.
//
// Each kernel has a portable scalar baseline plus SIMD tiers (SSE2/SSSE3 and
// AVX2 on x86-64, NEON on aarch64) selected once at startup via CPU feature
// detection. The GF(2^8) kernel uses the classic split-nibble (PSHUFB /
// TBL) technique: for a fixed coefficient c, two 16-entry tables give
// c * lo_nibble and c * hi_nibble, so one shuffle pair multiplies 16/32
// bytes at a time. The scalar baseline materialises the full 256-entry
// product table from the same nibble tables, which is already branchless and
// several times faster than the historical log/exp loop (kept as
// `ref::gf256_mul_acc` for equivalence tests and the perf gate).
//
// Dispatch overrides:
//   * env KDD_FORCE_SCALAR=1      — force the scalar tier at startup
//   * env KDD_KERNEL_TIER=<name>  — force a named tier (scalar/sse2/avx2/neon)
//   * kern::set_tier(tier)        — runtime override, tests only (not
//                                   thread-safe against in-flight kernels)
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace kdd::kern {

enum class Tier : std::uint8_t {
  kScalar = 0,
  kSse2 = 1,  ///< 16-byte vectors (XOR/all_zero: SSE2; mul_acc: SSSE3 PSHUFB)
  kAvx2 = 2,  ///< 32-byte vectors
  kNeon = 3,  ///< aarch64 128-bit vectors
};

/// Human-readable tier name ("scalar", "sse2", "avx2", "neon").
const char* tier_name(Tier t);

/// The tier the kernels currently dispatch to.
Tier active_tier();

/// Widest tier this CPU supports (ignoring any override).
Tier widest_supported_tier();

/// Forces dispatch to `t`. Returns false (and leaves dispatch unchanged) if
/// the CPU does not support `t`. Intended for tests and benchmarks only.
bool set_tier(Tier t);

// ---- Dispatched kernels -----------------------------------------------------

/// dst[i] ^= src[i] for i in [0, n).
void xor_into(std::uint8_t* dst, const std::uint8_t* src, std::size_t n);

/// dst[i] = a[i] ^ b[i] for i in [0, n) (fused copy+XOR; dst may alias a or b).
void xor_pages3(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
                std::size_t n);

/// True iff every byte of [p, p+n) is zero. Early-exits on the first
/// nonzero vector/word.
bool all_zero(const std::uint8_t* p, std::size_t n);

/// dst[i] ^= c * src[i] over GF(2^8) with the RAID-6 polynomial 0x11d.
/// c == 0 is a no-op; c == 1 degrades to xor_into.
void gf256_mul_acc(std::uint8_t* dst, std::uint8_t c, const std::uint8_t* src,
                   std::size_t n);

// ---- Page hash (portable, one implementation, no tiers) -----------------------

/// Start of a page_hash chain.
inline constexpr std::uint64_t kPageHashSeed = 0x243f6a8885a308d3ull;

/// 64-bit hash of `bytes`, continuing the chain `seed`: hash several buffers
/// in order by passing each result as the next seed. Four word lanes each
/// absorb one 8-byte word per step through a multiply-rotate-multiply that is
/// a bijection of the word, so any change confined to one 8-byte word of the
/// buffer (every single-bit flip in particular) always changes the result;
/// wider changes such as torn sectors collide with probability about 2^-64.
/// Not cryptographic. Words load in host byte order.
std::uint64_t page_hash(std::uint64_t seed, std::span<const std::uint8_t> bytes);

// ---- Scalar reference implementations ---------------------------------------
//
// Bit-exact, deliberately naive baselines. The equivalence test suite checks
// every dispatched tier against these, and the perf gate uses them as the
// "before" side of its trajectory file.
namespace ref {

void xor_into(std::uint8_t* dst, const std::uint8_t* src, std::size_t n);
void xor_pages3(std::uint8_t* dst, const std::uint8_t* a, const std::uint8_t* b,
                std::size_t n);
bool all_zero(const std::uint8_t* p, std::size_t n);
/// The historical byte-at-a-time log/exp loop.
void gf256_mul_acc(std::uint8_t* dst, std::uint8_t c, const std::uint8_t* src,
                   std::size_t n);
/// Standalone Russian-peasant GF(2^8) multiply (no tables).
std::uint8_t gf256_mul(std::uint8_t a, std::uint8_t b);

}  // namespace ref

}  // namespace kdd::kern
