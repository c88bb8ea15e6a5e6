// Lifetime explorer: how long does the SSD cache survive under each policy?
//
// Runs a day's worth of a write-heavy OLTP-like workload through each policy
// with the cache backed by a *real* flash model (FTL, GC, erase counters)
// and projects device lifetime from the measured endurance consumption —
// the paper's headline motivation ("typical data-center workloads can wear
// out an MLC SSD cache within months") made concrete.
//
// Usage: lifetime_explorer [locality%]   (default 25; a number in [0, 100])
#include <cstdio>
#include <optional>
#include <unordered_map>

#include "blockdev/ssd_model.hpp"
#include "common/cli_args.hpp"
#include "common/table.hpp"
#include "compress/content.hpp"
#include "harness/harness.hpp"
#include "trace/zipf_workload.hpp"

int main(int argc, char** argv) {
  using namespace kdd;
  const std::optional<double> locality_pct =
      argc > 1 ? cli::parse_double(argv[1], 0.0, 100.0) : 25.0;
  if (!locality_pct) {
    std::fprintf(stderr, "usage: %s [locality%%]   (a number in [0, 100])\n", argv[0]);
    return 2;
  }
  const double locality = *locality_pct / 100.0;

  // One simulated "day": 2 GiB of 4 KiB requests, 25 % reads, Zipfian.
  ZipfWorkloadConfig wcfg;
  wcfg.working_set_pages = 65536;  // 256 MiB working set
  wcfg.total_requests = 524288;    // 2 GiB transferred per day
  wcfg.read_rate = 0.25;
  const RaidGeometry geo = paper_geometry(wcfg.working_set_pages * 2);
  wcfg.array_pages = geo.data_pages();

  std::printf("SSD cache lifetime projection (real FTL, MLC 3000 P/E)\n");
  std::printf("one day = %s transferred, %.0f%% content locality\n\n",
              format_bytes(wcfg.total_requests * kPageSize).c_str(),
              locality * 100);

  TextTable table({"Policy", "Host writes/day", "NAND writes/day", "WA",
                   "Endurance/day", "Projected lifetime"});
  double kdd_days = 0, wt_days = 0;
  for (const PolicyKind kind :
       {PolicyKind::kWT, PolicyKind::kWA, PolicyKind::kLeavO, PolicyKind::kKdd}) {
    RaidArray array(geo);
    SsdConfig scfg;
    scfg.logical_pages = 16384;  // 64 MiB cache
    SsdModel ssd(scfg);
    PolicyConfig cfg;
    cfg.ssd_pages = scfg.logical_pages;
    cfg.delta_ratio_mean = locality;
    auto policy = make_policy(kind, cfg, &array, &ssd);

    // Real content with the requested locality.
    const ContentGenerator gen(5);
    Rng rng(6);
    std::unordered_map<Lba, Page> current;
    ZipfWorkload workload(wcfg);
    Page buf = make_page();
    while (!workload.done()) {
      const TraceRecord r = workload.next();
      if (r.is_read) {
        policy->read(r.page, buf, nullptr);
      } else {
        auto it = current.find(r.page);
        Page next = it == current.end() ? gen.base_page(r.page)
                                        : gen.mutate(it->second, locality, rng);
        policy->write(r.page, next, nullptr);
        current[r.page] = std::move(next);
      }
    }
    policy->flush(nullptr);

    const SsdWearStats wear = ssd.wear();
    const double per_day = ssd.endurance_consumed();
    const double days = per_day > 0 ? 1.0 / per_day : 1e9;
    if (kind == PolicyKind::kKdd) kdd_days = days;
    if (kind == PolicyKind::kWT) wt_days = days;
    char lifetime[64];
    std::snprintf(lifetime, sizeof lifetime, "%.1f months", days / 30.4);
    table.add_row({policy_kind_name(kind),
                   format_bytes(wear.host_page_writes * kPageSize),
                   format_bytes(wear.nand_page_writes * kPageSize),
                   TextTable::num(wear.write_amplification(), 2),
                   format_pct(per_day), lifetime});
  }
  table.print();
  std::printf("\nKDD extends cache lifetime %.1fx over write-through at this locality.\n",
              kdd_days / wt_days);
  return 0;
}
