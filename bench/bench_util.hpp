// Shared plumbing for the per-figure bench binaries: workload grids, sweep
// runners and report formatting. Every binary prints the rows/series of the
// corresponding table or figure in the paper; KDD_SCALE (default 0.25)
// shrinks footprints and request counts proportionally.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "harness/harness.hpp"
#include "kdd/kdd_cache.hpp"
#include "trace/generators.hpp"

namespace kdd::bench {

/// Cache sizes to sweep for a workload, as fractions of its unique footprint
/// (the paper's x-axes are absolute page counts; fractions keep the sweep
/// meaningful at any KDD_SCALE).
inline std::vector<double> cache_fractions() { return {0.05, 0.10, 0.20, 0.40, 0.60}; }

struct SweepPoint {
  std::string policy;     ///< "WT", "LeavO", "KDD-25%", ...
  std::uint64_t cache_pages = 0;
  CacheStats stats;
};

/// Runs one policy/locality configuration over a trace. With `elastic` KDD
/// runs the adaptive DAZ/DEZ boundary; other policies ignore the flag.
inline CacheStats run_policy_on_trace(PolicyKind kind, double locality_mean,
                                      std::uint64_t ssd_pages, const Trace& trace,
                                      const RaidGeometry& geo,
                                      bool elastic = false) {
  PolicyConfig cfg;
  cfg.ssd_pages = ssd_pages;
  cfg.delta_ratio_mean = locality_mean;
  cfg.adaptive_boundary = elastic;
  auto policy = make_policy(kind, cfg, geo);
  return run_counter_trace(*policy, trace, geo.data_pages());
}

/// Compressibility-mix axis for the KDDe columns of Figures 5/7:
/// delta_ratio_mean is the Gaussian mean of the delta-to-page size ratio, so
/// 0.85 models near-incompressible content (deltas almost page-sized), 0.45
/// a mixed blend, 0.10 highly-compressible hot updates.
inline constexpr double kCompressMix[3] = {0.85, 0.45, 0.10};

/// "123" -> "123 k pages" style label for the cache-size column.
inline std::string kpages(std::uint64_t pages) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0fk", static_cast<double>(pages) / 1000.0);
  return buf;
}

inline std::string pct(double v) { return TextTable::num(v * 100.0, 1) + "%"; }

/// Header banner shared by all bench binaries.
inline void banner(const char* experiment, const char* what, double scale) {
  std::printf("=== %s — %s ===\n", experiment, what);
  std::printf("(synthetic workloads calibrated to the paper's Table I; KDD_SCALE=%.2f)\n\n",
              scale);
}

}  // namespace kdd::bench
