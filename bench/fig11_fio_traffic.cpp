// Figure 11: SSD write traffic under the FIO-like Zipf benchmark, read rate
// swept 0-75 %.
// Paper: WA least (approaching KDD as reads grow); KDD cuts traffic vs WT by
// 44.0/38.6/31.0/19.4 % and vs LeavO by 46.4/41.3/34.0/22.6 %.
#include <cstdio>

#include "bench_util.hpp"
#include "sim/event_sim.hpp"
#include "trace/zipf_workload.hpp"

int main() {
  using namespace kdd;
  const double scale = experiment_scale();
  bench::banner("Figure 11", "SSD write traffic, closed-loop Zipf (FIO)", scale);

  const auto cache_pages = static_cast<std::uint64_t>(262144.0 * scale);
  const auto wss_pages = static_cast<std::uint64_t>(409600.0 * scale);
  const auto total_requests = static_cast<std::uint64_t>(1048576.0 * scale);
  const RaidGeometry geo = paper_geometry(wss_pages * 2);

  TextTable table({"Read rate", "WA", "WT", "LeavO", "KDD", "KDD vs WT",
                   "KDD vs LeavO"});
  for (const double read_rate : {0.0, 0.25, 0.50, 0.75}) {
    std::vector<std::string> row{bench::pct(read_rate)};
    double wt = 0, leavo = 0, kdd = 0;
    for (const PolicyKind kind :
         {PolicyKind::kWA, PolicyKind::kWT, PolicyKind::kLeavO, PolicyKind::kKdd}) {
      PolicyConfig cfg = PolicyConfig::paper();
      cfg.ssd_pages = cache_pages;
      cfg.delta_ratio_mean = 0.25;
      auto policy = make_policy(kind, cfg, geo);
      ZipfWorkloadConfig wcfg;
      wcfg.working_set_pages = wss_pages;
      wcfg.total_requests = total_requests;
      wcfg.read_rate = read_rate;
      wcfg.array_pages = geo.data_pages();
      const Trace trace = generate_zipf_trace(wcfg);
      const CacheStats s = run_counter_trace(*policy, trace, geo.data_pages());
      const double gib =
          static_cast<double>(s.write_traffic_bytes()) / static_cast<double>(kGiB);
      if (kind == PolicyKind::kWT) wt = gib;
      if (kind == PolicyKind::kLeavO) leavo = gib;
      if (kind == PolicyKind::kKdd) kdd = gib;
      row.push_back(TextTable::num(gib, 2));
    }
    row.push_back(bench::cut_pct(1.0 - kdd / wt));
    row.push_back(bench::cut_pct(1.0 - kdd / leavo));
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\n(GiB written to SSD; paper: KDD -44.0/-38.6/-31.0/-19.4%% vs WT)\n");

  // Queue-depth sweep: the straight trace replay above is order-fixed, so QD
  // cannot move it. The closed-loop simulator interleaves the per-thread
  // request streams by completion time instead — deeper queues reorder the
  // stream the cache sees, which shifts hit patterns and with them SSD
  // traffic. Fixed 25 % read rate, WT vs KDD.
  TextTable qd_table({"QD", "WT GiB", "KDD GiB", "KDD vs WT"});
  for (const unsigned qd : {16u, 64u, 256u}) {
    double wt = 0, kdd = 0;
    for (const PolicyKind kind : {PolicyKind::kWT, PolicyKind::kKdd}) {
      PolicyConfig cfg = PolicyConfig::paper();
      cfg.ssd_pages = cache_pages;
      cfg.delta_ratio_mean = 0.25;
      auto policy = make_policy(kind, cfg, geo);
      EventSimulator sim(paper_sim_config(geo.num_disks), policy.get());
      ZipfWorkloadConfig wcfg;
      wcfg.working_set_pages = wss_pages;
      wcfg.total_requests = total_requests;
      wcfg.read_rate = 0.25;
      wcfg.array_pages = geo.data_pages();
      ZipfWorkload workload(wcfg);
      (void)sim.run_closed_loop(workload, qd);
      const double gib = static_cast<double>(
                             policy->stats().write_traffic_bytes()) /
                         static_cast<double>(kGiB);
      if (kind == PolicyKind::kWT) wt = gib;
      if (kind == PolicyKind::kKdd) kdd = gib;
    }
    qd_table.add_row({std::to_string(qd), TextTable::num(wt, 2),
                      TextTable::num(kdd, 2),
                      bench::cut_pct(1.0 - kdd / wt)});
  }
  std::printf("\nQueue-depth sweep (25%% reads, closed loop):\n");
  qd_table.print();
  return 0;
}
