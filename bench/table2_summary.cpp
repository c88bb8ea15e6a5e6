// Table II: qualitative comparison of the caching policies, derived from
// measured data rather than asserted — a closed-loop Zipf run (25 % reads)
// classifies each policy's I/O latency and SSD endurance as in the paper:
//
//                WT    WA    LeavO  KDD
//   I/O latency  High  High  Low    Low
//   SSD enduran. Bad   Good  Bad    Good
#include <cstdio>

#include "bench_util.hpp"
#include "sim/event_sim.hpp"
#include "trace/zipf_workload.hpp"

int main() {
  using namespace kdd;
  const double scale = experiment_scale();
  bench::banner("Table II", "qualitative policy comparison (measured)", scale);

  const auto cache_pages = static_cast<std::uint64_t>(262144.0 * scale);
  const auto wss_pages = static_cast<std::uint64_t>(409600.0 * scale);
  const auto total_requests = static_cast<std::uint64_t>(524288.0 * scale);
  const RaidGeometry geo = paper_geometry(wss_pages * 2);

  double latency_ms[4] = {};
  double traffic_gib[4] = {};
  const PolicyKind kinds[] = {PolicyKind::kWT, PolicyKind::kWA, PolicyKind::kLeavO,
                              PolicyKind::kKdd};
  for (int i = 0; i < 4; ++i) {
    PolicyConfig cfg = PolicyConfig::paper();
    cfg.ssd_pages = cache_pages;
    cfg.delta_ratio_mean = 0.25;
    auto policy = make_policy(kinds[i], cfg, geo);
    EventSimulator sim(paper_sim_config(geo.num_disks), policy.get());
    ZipfWorkloadConfig wcfg;
    wcfg.working_set_pages = wss_pages;
    wcfg.total_requests = total_requests;
    wcfg.read_rate = 0.25;
    wcfg.array_pages = geo.data_pages();
    ZipfWorkload workload(wcfg);
    latency_ms[i] = sim.run_closed_loop(workload, 16).mean_response_ms();
    traffic_gib[i] = static_cast<double>(policy->stats().write_traffic_bytes()) /
                     static_cast<double>(kGiB);
  }

  // Classify against the worst value in each dimension: anything at least
  // 25 % better than the worst policy counts as Low latency / Good endurance.
  double worst_latency = latency_ms[0], worst_traffic = traffic_gib[0];
  for (int i = 1; i < 4; ++i) {
    worst_latency = std::max(worst_latency, latency_ms[i]);
    worst_traffic = std::max(worst_traffic, traffic_gib[i]);
  }
  TextTable table({"", "WT", "WA", "LeavO", "KDD"});
  std::vector<std::string> lat_row{"I/O latency"};
  std::vector<std::string> end_row{"SSD endurance"};
  for (int i = 0; i < 4; ++i) {
    lat_row.push_back(latency_ms[i] <= worst_latency * 0.75
                          ? "Low (" + TextTable::num(latency_ms[i], 1) + " ms)"
                          : "High (" + TextTable::num(latency_ms[i], 1) + " ms)");
    end_row.push_back(traffic_gib[i] <= worst_traffic * 0.75
                          ? "Good (" + TextTable::num(traffic_gib[i], 2) + " GiB)"
                          : "Bad (" + TextTable::num(traffic_gib[i], 2) + " GiB)");
  }
  table.add_row(std::move(lat_row));
  table.add_row(std::move(end_row));
  table.print();
  std::printf("\nPaper: WT High/Bad, WA High/Good, LeavO Low/Bad, KDD Low/Good.\n");
  return 0;
}
