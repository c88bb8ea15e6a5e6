// Ablations of the design choices Section III calls out:
//  (a) residency: the paper's always-admit plus scheme-2 reclaim (drop old
//      pages — "for the sake of simplicity", victim pages being commonly
//      cold) vs the default, which admits on the second miss and keeps a
//      re-referenced old page as clean (scheme 1);
//  (b) staging-buffer size — bigger NVRAM staging packs DEZ pages denser and
//      coalesces more rewrites;
//  (c) KDD's circular metadata log vs LeavO-style direct-mapped table —
//      the log batches 255 entries per flash page regardless of locality;
//  (d) cleaning watermark — how aggressively parity is brought up to date.
#include <cstdio>

#include "bench_util.hpp"
#include "policies/leavo.hpp"
#include "trace/zipf_workload.hpp"

namespace {

using namespace kdd;

Trace workload(double scale) {
  ZipfWorkloadConfig wcfg;
  wcfg.working_set_pages = static_cast<std::uint64_t>(131072.0 * scale * 4);
  wcfg.total_requests = static_cast<std::uint64_t>(400000.0 * scale * 4);
  wcfg.read_rate = 0.3;
  return generate_zipf_trace(wcfg);
}

}  // namespace

int main() {
  using namespace kdd;
  const double scale = experiment_scale();
  bench::banner("Ablations", "KDD design choices (Section III)", scale);
  const Trace trace = workload(scale);
  const TraceStats tstats = compute_stats(trace);
  const RaidGeometry geo = paper_geometry(tstats.max_page);
  const auto ssd_pages = static_cast<std::uint64_t>(65536.0 * scale * 4);

  auto run_kdd = [&](auto mutate_cfg) {
    PolicyConfig cfg = PolicyConfig::paper();
    cfg.ssd_pages = ssd_pages;
    cfg.delta_ratio_mean = 0.25;
    mutate_cfg(cfg);
    KddCache kdd(cfg, geo);
    return run_counter_trace(kdd, trace, geo.data_pages());
  };

  {
    std::printf("(a) Residency: admission and reclaim after cleaning\n");
    TextTable t({"Scheme", "Hit ratio", "SSD writes (GiB)"});
    const CacheStats drop = run_kdd([](PolicyConfig&) {});
    const CacheStats keep = run_kdd(
        [](PolicyConfig& cfg) { cfg.residency = Residency::kReReferenced; });
    t.add_row({"always admit, 2: drop old pages (paper)", bench::pct(drop.hit_ratio()),
               TextTable::num(static_cast<double>(drop.write_traffic_bytes()) /
                                  static_cast<double>(kGiB), 2)});
    t.add_row({"2nd miss, 1: keep re-referenced (default)", bench::pct(keep.hit_ratio()),
               TextTable::num(static_cast<double>(keep.write_traffic_bytes()) /
                                  static_cast<double>(kGiB), 2)});
    t.print();
    std::printf("\n");
  }
  {
    std::printf("(b) NVRAM staging-buffer size\n");
    TextTable t({"Staging bytes", "Delta-commit pages", "SSD writes (GiB)"});
    for (const std::size_t pages : {1u, 2u, 4u, 8u}) {
      const CacheStats s = run_kdd([pages](PolicyConfig& cfg) {
        cfg.staging_buffer_bytes = pages * kPageSize;
      });
      t.add_row({TextTable::num(static_cast<double>(pages * kPageSize), 0),
                 TextTable::num(static_cast<double>(
                     s.ssd_writes[static_cast<int>(SsdWriteKind::kDeltaCommit)]), 0),
                 TextTable::num(static_cast<double>(s.write_traffic_bytes()) /
                                    static_cast<double>(kGiB), 2)});
    }
    t.print();
    std::printf("\n");
  }
  {
    std::printf("(c) Metadata persistence: circular log (KDD) vs direct map (LeavO-style)\n");
    const CacheStats kdd = run_kdd([](PolicyConfig&) {});
    PolicyConfig cfg;
    cfg.ssd_pages = ssd_pages;
    LeavOPolicy leavo(cfg, geo);
    const CacheStats lv = run_counter_trace(leavo, trace, geo.data_pages());
    TextTable t({"Scheme", "Metadata page writes", "Share of traffic"});
    t.add_row({"KDD circular log",
               TextTable::num(static_cast<double>(kdd.metadata_ssd_writes()), 0),
               bench::pct(static_cast<double>(kdd.metadata_ssd_writes()) /
                          static_cast<double>(kdd.total_ssd_writes()))});
    t.add_row({"LeavO direct-mapped table",
               TextTable::num(static_cast<double>(lv.metadata_ssd_writes()), 0),
               bench::pct(static_cast<double>(lv.metadata_ssd_writes()) /
                          static_cast<double>(lv.total_ssd_writes()))});
    t.print();
    std::printf("\n");
  }
  {
    std::printf("(d) Cleaning high watermark (old+delta share of cache)\n");
    TextTable t({"High watermark", "Cleanings", "Hit ratio", "SSD writes (GiB)",
                 "Stale for (reqs, mean/p99)"});
    for (const double wm : {0.10, 0.30, 0.60}) {
      PolicyConfig cfg = PolicyConfig::paper();
      cfg.ssd_pages = ssd_pages;
      cfg.delta_ratio_mean = 0.25;
      cfg.clean_high_watermark = wm;
      cfg.clean_low_watermark = wm / 2;
      KddCache kdd(cfg, geo);
      const CacheStats s = run_counter_trace(kdd, trace, geo.data_pages());
      const LatencyHistogram& exposure = kdd.staleness_exposure();
      t.add_row({bench::pct(wm), TextTable::num(static_cast<double>(s.cleanings), 0),
                 bench::pct(s.hit_ratio()),
                 TextTable::num(static_cast<double>(s.write_traffic_bytes()) /
                                    static_cast<double>(kGiB), 2),
                 TextTable::num(exposure.mean_us(), 0) + " / " +
                     std::to_string(exposure.percentile_us(0.99))});
    }
    t.print();
    std::printf("(staleness exposure = requests between a stripe's parity going "
                "stale and its repair —\n the reliability window the watermark "
                "trades against cleaning cost)\n");
  }
  return 0;
}
