// Reliability drill: rolling disk replacement + background scrub + a power
// cut mid-rebuild, under a live workload, with the end state verified
// byte-identical against an undisturbed run of the same workload. Exports the
// final metrics registry (Prometheus text + JSON snapshot) so CI can assert
// on kdd_rebuild_progress / kdd_degraded_reads_total and friends.
//
// Usage: reliability_drill [--seed N] [--out DIR] [--no-power-cut]
// Exit code 0 == zero integrity violations.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>

#include "common/cli_args.hpp"
#include "harness/drill.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

int main(int argc, char** argv) {
  using namespace kdd;

  std::uint64_t seed = 42;
  std::string out_dir;
  DrillConfig cfg;
  cfg.power_cut_mid_rebuild = true;
  for (int i = 1; i < argc; ++i) {
    bool ok = true;
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      const std::optional<std::uint64_t> v = cli::parse_u64(argv[++i]);
      ok = v.has_value();
      seed = v.value_or(seed);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--no-power-cut") == 0) {
      cfg.power_cut_mid_rebuild = false;
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "usage: %s [--seed N] [--out DIR] [--no-power-cut]\n"
                   "  N: unsigned decimal below 2^64\n",
                   argv[0]);
      return 2;
    }
  }

  ReliabilityDrillRunner runner(cfg);
  const DrillReport rep = runner.run(seed);

  std::printf("reliability drill (seed %llu)\n",
              static_cast<unsigned long long>(seed));
  std::printf("  requests completed ........ %d\n", rep.requests_completed);
  std::printf("  healthy digest ............ %016llx\n",
              static_cast<unsigned long long>(rep.healthy_digest));
  std::printf("  faulted digest ............ %016llx  (%s)\n",
              static_cast<unsigned long long>(rep.faulted_digest),
              rep.healthy_digest == rep.faulted_digest ? "identical"
                                                       : "DIVERGED");
  std::printf("  rebuilds .................. %llu started, %llu completed\n",
              static_cast<unsigned long long>(rep.rebuilds_started),
              static_cast<unsigned long long>(rep.rebuilds_completed));
  std::printf("  stale rebuild folds ....... %llu (must be 0)\n",
              static_cast<unsigned long long>(rep.stale_rebuild_folds));
  std::printf("  degraded reads (array) .... %llu\n",
              static_cast<unsigned long long>(rep.degraded_reads));
  std::printf("  degraded cache hits ....... %llu\n",
              static_cast<unsigned long long>(rep.degraded_cache_hits));
  std::printf("  degraded delta folds ...... %llu\n",
              static_cast<unsigned long long>(rep.degraded_delta_folds));
  std::printf("  barrier deferrals ......... %llu\n",
              static_cast<unsigned long long>(rep.barrier_deferrals));
  std::printf("  requests while degraded ... %llu\n",
              static_cast<unsigned long long>(rep.requests_while_degraded));
  std::printf("  scrub ..................... %llu groups, %llu repairs, %llu passes\n",
              static_cast<unsigned long long>(rep.scrub_groups),
              static_cast<unsigned long long>(rep.scrub_repairs),
              static_cast<unsigned long long>(rep.scrub_passes));
  std::printf("  power cut mid-rebuild ..... %s\n",
              rep.power_cut_fired
                  ? (rep.checkpoint_resumed ? "fired, checkpoint resumed"
                                            : "fired, RESUME FAILED")
                  : "not fired");
  std::printf("  foreground p99 ops ........ healthy %llu, faulted %llu\n",
              static_cast<unsigned long long>(rep.healthy_p99_ops),
              static_cast<unsigned long long>(rep.faulted_p99_ops));

  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
    obs::write_text_file(out_dir + "/metrics.prom", obs::prometheus_text(snap));
    obs::write_text_file(out_dir + "/snapshot.json", obs::snapshot_json(snap));
    std::printf("  metrics ................... %s/metrics.prom, %s/snapshot.json\n",
                out_dir.c_str(), out_dir.c_str());
  }

  if (!rep.ok()) {
    std::printf("VIOLATIONS (%zu):\n", rep.violations.size());
    for (const std::string& v : rep.violations) {
      std::printf("  - %s\n", v.c_str());
    }
    return 1;
  }
  std::printf("OK: zero integrity violations\n");
  return 0;
}
