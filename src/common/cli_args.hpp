// Strict parsing of numeric command-line arguments and environment values
// (the example tools, KDD_SCALE, KDD_SWEEP_THREADS). A value is accepted
// only when all of it is a number in range; the caller prints a usage line
// or message and exits 2 otherwise, instead of running with whatever
// strtoull/atof made of it ("abc" -> 0, "-1" -> 2^64 - 1).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <system_error>

namespace kdd::cli {

/// An unsigned decimal integer in [lo, hi]: no sign, no blanks, nothing
/// after the digits, no overflow.
inline std::optional<std::uint64_t> parse_u64(const char* arg, std::uint64_t lo = 0,
                                              std::uint64_t hi = UINT64_MAX) {
  const char* const end = arg + std::strlen(arg);
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(arg, end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) return std::nullopt;
  return v;
}

/// A finite decimal number in [lo, hi], nothing after it.
inline std::optional<double> parse_double(const char* arg, double lo, double hi) {
  const char* const end = arg + std::strlen(arg);
  double v = 0;
  const auto [ptr, ec] = std::from_chars(arg, end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

}  // namespace kdd::cli
