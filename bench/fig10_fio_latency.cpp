// Figure 10: average response time under the FIO-like closed-loop Zipf
// benchmark (Section IV-B3): alpha = 1.0001, 4 KiB blocks, 16 threads,
// 1.6 GiB working set over a 1 GiB cache, read rate swept 0-75 %, medium
// content locality (25 %).
// Paper: KDD cuts mean response time by 42.1-43.3 % vs Nossd and
// 42.8-32.3 % vs WT; WT/WA only beat Nossd at high read rates; KDD ~ LeavO.
#include <cstdio>

#include "bench_util.hpp"
#include "sim/event_sim.hpp"
#include "trace/zipf_workload.hpp"

int main() {
  using namespace kdd;
  const double scale = experiment_scale();
  bench::banner("Figure 10", "average response time, closed-loop Zipf (FIO)", scale);

  const auto cache_pages = static_cast<std::uint64_t>(262144.0 * scale);  // 1 GiB
  const auto wss_pages = static_cast<std::uint64_t>(409600.0 * scale);    // 1.6 GiB
  const auto total_requests = static_cast<std::uint64_t>(1048576.0 * scale);  // 4 GiB
  const RaidGeometry geo = paper_geometry(wss_pages * 2);

  TextTable table({"Read rate", "Nossd", "WA", "WT", "LeavO", "KDD", "KDD vs Nossd",
                   "KDD vs WT"});
  for (const double read_rate : {0.0, 0.25, 0.50, 0.75}) {
    std::vector<std::string> row{bench::pct(read_rate)};
    double nossd_ms = 0, wt_ms = 0, kdd_ms = 0;
    for (const PolicyKind kind : {PolicyKind::kNossd, PolicyKind::kWA, PolicyKind::kWT,
                                  PolicyKind::kLeavO, PolicyKind::kKdd}) {
      PolicyConfig cfg = PolicyConfig::paper();
      cfg.ssd_pages = cache_pages;
      cfg.delta_ratio_mean = 0.25;
      auto policy = make_policy(kind, cfg, geo);
      EventSimulator sim(paper_sim_config(geo.num_disks), policy.get());
      ZipfWorkloadConfig wcfg;
      wcfg.working_set_pages = wss_pages;
      wcfg.total_requests = total_requests;
      wcfg.read_rate = read_rate;
      wcfg.array_pages = geo.data_pages();
      ZipfWorkload workload(wcfg);
      const double ms = sim.run_closed_loop(workload, 16).mean_response_ms();
      if (kind == PolicyKind::kNossd) nossd_ms = ms;
      if (kind == PolicyKind::kWT) wt_ms = ms;
      if (kind == PolicyKind::kKdd) kdd_ms = ms;
      row.push_back(TextTable::num(ms, 2));
    }
    row.push_back(bench::cut_pct(1.0 - kdd_ms / nossd_ms));
    row.push_back(bench::cut_pct(1.0 - kdd_ms / wt_ms));
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\n(mean response time in ms, 16 threads; paper: KDD -42..-43%% vs Nossd)\n");

  // Queue-depth sweep: the closed-loop thread count IS the outstanding
  // request count, so sweeping it to 256 shows how response time degrades as
  // the array saturates (admission control in the prototype engine bounds
  // the same quantity). Fixed 50 % read rate, Nossd vs KDD.
  TextTable qd_table({"QD", "Nossd ms", "KDD ms", "KDD vs Nossd"});
  for (const unsigned qd : {16u, 64u, 256u}) {
    double nossd_ms = 0, kdd_ms = 0;
    for (const PolicyKind kind : {PolicyKind::kNossd, PolicyKind::kKdd}) {
      PolicyConfig cfg = PolicyConfig::paper();
      cfg.ssd_pages = cache_pages;
      cfg.delta_ratio_mean = 0.25;
      auto policy = make_policy(kind, cfg, geo);
      EventSimulator sim(paper_sim_config(geo.num_disks), policy.get());
      ZipfWorkloadConfig wcfg;
      wcfg.working_set_pages = wss_pages;
      wcfg.total_requests = total_requests;
      wcfg.read_rate = 0.50;
      wcfg.array_pages = geo.data_pages();
      ZipfWorkload workload(wcfg);
      const double ms = sim.run_closed_loop(workload, qd).mean_response_ms();
      if (kind == PolicyKind::kNossd) nossd_ms = ms;
      if (kind == PolicyKind::kKdd) kdd_ms = ms;
    }
    qd_table.add_row({std::to_string(qd), TextTable::num(nossd_ms, 2),
                      TextTable::num(kdd_ms, 2),
                      bench::cut_pct(1.0 - kdd_ms / nossd_ms)});
  }
  std::printf("\nQueue-depth sweep (50%% reads, closed loop):\n");
  qd_table.print();
  return 0;
}
