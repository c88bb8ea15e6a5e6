// Trace explorer: compare caching policies on a block-level trace, or
// analyse the trace's locality structure.
//
// Usage:
//   trace_explorer [workload] [policy] [cache_kpages] [locality%]
//     workload: Fin1 | Fin2 | Hm0 | Web0 (synthetic, Table I-calibrated)
//               or a path to a canonical trace file ("time_us,page,pages,R|W")
//     policy:   Nossd | WT | WA | LeavO | KDD | all   (default: all)
//               or "analyze" to print reuse-distance / LRU-curve /
//               sequentiality / working-set statistics instead
//     cache_kpages: SSD size in thousands of 4 KiB pages (default: 32)
//     locality%: mean delta compression ratio for KDD (default: 25)
//
// Prints hit ratio, SSD write traffic breakdown, disk I/O and — through the
// discrete-event model — the mean/percentile response times of an open-loop
// replay.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "common/cli_args.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "harness/harness.hpp"
#include "trace/analysis.hpp"
#include "trace/generators.hpp"
#include "trace/trace_io.hpp"

namespace {

using namespace kdd;

Trace load_workload(const std::string& name) {
  if (name == "Fin1" || name == "Fin2" || name == "Hm0" || name == "Web0") {
    return generate_preset(name, experiment_scale(0.1));
  }
  return read_canonical_trace(name, name);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = argc > 1 ? argv[1] : "Fin1";
  const std::string policy_name = argc > 2 ? argv[2] : "all";
  // The cache holds cache_kpages * 1000 pages, so that product must fit.
  const std::optional<std::uint64_t> cache_kpages =
      argc > 3 ? cli::parse_u64(argv[3], 1, UINT64_MAX / 1000) : 32;
  const std::optional<double> locality_pct =
      argc > 4 ? cli::parse_double(argv[4], 0.0, 100.0) : 25.0;
  if (!cache_kpages || !locality_pct) {
    std::fprintf(stderr,
                 "usage: %s [workload] [policy] [cache_kpages] [locality%%]\n"
                 "  cache_kpages: positive integer; locality%%: number in [0, 100]\n",
                 argv[0]);
    return 2;
  }
  const double locality = *locality_pct / 100.0;

  Trace trace = load_workload(workload);
  const TraceStats tstats = compute_stats(trace);
  std::printf("workload %s: %zu requests, %lluk unique pages, read ratio %.2f\n\n",
              workload.c_str(), trace.records.size(),
              static_cast<unsigned long long>(tstats.unique_pages_total / 1000),
              tstats.read_ratio());

  if (policy_name == "analyze") {
    // Locality structure: the numbers behind cache-policy behaviour.
    const ReuseProfile all = compute_reuse_profile(trace);
    const ReuseProfile writes = compute_reuse_profile(trace, /*writes_only=*/true);
    const SequentialityProfile seq = compute_sequentiality(trace);
    std::printf("sequential fraction: %.1f%%   mean request: %.2f pages\n",
                seq.sequential_fraction * 100, seq.mean_request_pages);
    std::printf("cold accesses: %s (all) / %s (writes)\n\n",
                format_pct(static_cast<double>(all.cold_accesses) /
                           static_cast<double>(all.total_accesses)).c_str(),
                format_pct(static_cast<double>(writes.cold_accesses) /
                           static_cast<double>(writes.total_accesses)).c_str());
    TextTable lru({"Cache (k pages)", "LRU hit ratio", "write-stream hit ratio"});
    for (const std::uint64_t pages : {8ull, 16ull, 32ull, 64ull, 128ull, 256ull}) {
      lru.add_row({std::to_string(pages), format_pct(all.lru_hit_ratio(pages * 1000)),
                   format_pct(writes.lru_hit_ratio(pages * 1000))});
    }
    lru.print();
    std::printf("\nworking set per 10-minute window:\n");
    const auto profile =
        compute_working_set_profile(trace, 10ull * 60 * kUsPerSec);
    OnlineStats ws;
    for (const WorkingSetPoint& p : profile) {
      ws.add(static_cast<double>(p.distinct_pages));
    }
    std::printf("windows: %zu   distinct pages/window: mean %.0f  min %.0f  max %.0f\n",
                profile.size(), ws.mean(), ws.min(), ws.max());
    return 0;
  }

  const RaidGeometry geo = paper_geometry(tstats.max_page);
  std::vector<PolicyKind> kinds;
  if (policy_name == "all") {
    kinds = {PolicyKind::kNossd, PolicyKind::kWA, PolicyKind::kWT, PolicyKind::kLeavO,
             PolicyKind::kKdd};
  } else {
    for (const PolicyKind k : {PolicyKind::kNossd, PolicyKind::kWA, PolicyKind::kWT,
                               PolicyKind::kLeavO, PolicyKind::kKdd}) {
      if (policy_kind_name(k) == policy_name) kinds.push_back(k);
    }
    if (kinds.empty()) {
      std::fprintf(stderr, "unknown policy: %s\n", policy_name.c_str());
      return 1;
    }
  }

  TextTable table({"Policy", "Hit ratio", "SSD writes", "Metadata", "Disk R", "Disk W",
                   "Mean resp (ms)", "p99 (ms)"});
  for (const PolicyKind kind : kinds) {
    PolicyConfig cfg;
    cfg.ssd_pages = *cache_kpages * 1000;
    cfg.delta_ratio_mean = locality;
    // Counter pass for traffic/hit numbers.
    auto counter_policy = make_policy(kind, cfg, geo);
    const CacheStats s = run_counter_trace(*counter_policy, trace, geo.data_pages());
    // Timed pass for response times.
    auto timed_policy = make_policy(kind, cfg, geo);
    EventSimulator sim(paper_sim_config(geo.num_disks), timed_policy.get());
    const SimResult r = sim.run_open_loop(trace);

    table.add_row(
        {policy_kind_name(kind),
         kind == PolicyKind::kNossd || kind == PolicyKind::kWA
             ? std::string("-")
             : format_pct(s.hit_ratio()),
         format_bytes(s.write_traffic_bytes()),
         std::to_string(s.metadata_ssd_writes()),
         std::to_string(s.disk_reads), std::to_string(s.disk_writes),
         TextTable::num(r.mean_response_ms(), 2),
         TextTable::num(static_cast<double>(r.latency.percentile_us(0.99)) / 1000.0,
                        1)});
  }
  table.print();
  return 0;
}
