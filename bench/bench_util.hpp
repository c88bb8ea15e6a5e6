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

/// Runs one policy/locality configuration over a trace.
inline CacheStats run_policy_on_trace(PolicyKind kind, double locality_mean,
                                      std::uint64_t ssd_pages, const Trace& trace,
                                      const RaidGeometry& geo) {
  PolicyConfig cfg = PolicyConfig::paper();
  cfg.ssd_pages = ssd_pages;
  cfg.delta_ratio_mean = locality_mean;
  auto policy = make_policy(kind, cfg, geo);
  return run_counter_trace(*policy, trace, geo.data_pages());
}

/// "123" -> "123 k pages" style label for the cache-size column.
inline std::string kpages(std::uint64_t pages) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0fk", static_cast<double>(pages) / 1000.0);
  return buf;
}

inline std::string pct(double v) { return TextTable::num(v * 100.0, 1) + "%"; }

/// A reduction by fraction `v`, printed as a negative percentage ("-12.3%").
inline std::string cut_pct(double v) {
  std::string s = "-";
  s += pct(v);
  return s;
}

/// Header banner shared by all bench binaries.
inline void banner(const char* experiment, const char* what, double scale) {
  std::printf("=== %s — %s ===\n", experiment, what);
  std::printf("(synthetic workloads calibrated to the paper's Table I; KDD_SCALE=%.2f)\n\n",
              scale);
}

}  // namespace kdd::bench
