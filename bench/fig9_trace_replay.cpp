// Figure 9: average response time of Nossd, WA, WT, LeavO and KDD under
// open-loop replay of the four traces (Section IV-B2).
//
// The traces are replayed at their native arrival rate through the
// discrete-event model of the paper's testbed (5-disk RAID-5, 64 KiB chunks,
// 7,200 RPM disks with caches off, one SATA SSD cache, 1 GiB usable).
// Paper: KDD cuts mean response time vs Nossd by 41.7/61.2/28.0/30.1 % on
// Fin1/Fin2/Hm0/Web0; WA/WT only help on the read-heavy Fin2; KDD ~ LeavO.
#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench_util.hpp"
#include "harness/telemetry.hpp"
#include "obs/export.hpp"
#include "obs/serve.hpp"
#include "sim/event_sim.hpp"

namespace {

// --telemetry[=DIR]: after the figure table, re-run the KDD/Fin1 replay with
// the full observability stack on (spans, metrics, wear series, health
// engine, flight recorder) and drop the machine-readable artifacts under DIR
// (default "telemetry-fig9"). The run also exercises the live serving
// surface: the in-process HealthHandler snapshots /metrics and /health into
// scrape_metrics.prom / scrape_health.json, and a ScrapeServer on an
// ephemeral loopback port is self-fetched with the http_get client — the
// curl-free end-to-end proof CI's obs-smoke job schema-validates.
bool run_telemetry_replay(const char* out_dir, double scale,
                          std::uint64_t cache_pages) {
  using namespace kdd;
  Trace trace = generate_preset("Fin1", scale);
  rescale_duration(trace, static_cast<SimTime>(
                              static_cast<double>(trace.duration_us()) * scale));
  PolicyConfig cfg;
  cfg.ssd_pages = cache_pages;
  cfg.delta_ratio_mean = 0.25;
  const RaidGeometry geo = paper_geometry(compute_stats(trace).max_page);

  TelemetrySession::Options opts;
  opts.out_dir = out_dir;
  opts.t_unit = "sim_us";
  // ~64 buckets across the replay regardless of KDD_SCALE.
  opts.ops_per_bucket =
      std::max<std::uint64_t>(1, trace.records.size() / 64);
  TelemetrySession session(opts);

  KddCache kdd(cfg, geo);
  session.attach_policy(&kdd);
  session.attach_kdd(&kdd);
  EventSimulator sim(paper_sim_config(geo.num_disks), &kdd);
  sim.set_request_observer([&session](SimTime now, SimTime latency_us) {
    session.on_request(now, latency_us);
  });
  const SimResult r = sim.run_open_loop(trace);

  // Scrape the live surface before finish() tears the engine down: the
  // in-process handler writes the exact bytes a scraper would see, and the
  // socket server is hit once over loopback to prove the wire path.
  bool scrape_ok = true;
  {
    obs::HealthHandler handler(session.health());
    const obs::ScrapeResponse metrics = handler.handle("/metrics");
    const obs::ScrapeResponse health = handler.handle("/health");
    const std::string dir = std::string(out_dir) + "/";
    scrape_ok &= metrics.status == 200 &&
                 obs::write_text_file(dir + "scrape_metrics.prom", metrics.body);
    scrape_ok &= health.status == 200 &&
                 obs::write_text_file(dir + "scrape_health.json", health.body);

    obs::ScrapeServer server(handler);
    if (server.start(0)) {
      std::string body;
      int status = 0;
      scrape_ok &= obs::http_get(server.port(), "/health", &body, &status) &&
                   status == 200 && body == health.body;
      // /metrics over the wire too; the registry is quiesced (the sim run
      // finished above), so the socket body matches the snapshot exactly.
      scrape_ok &= obs::http_get(server.port(), "/metrics", &body, &status) &&
                   status == 200 && body == metrics.body;
      server.stop();
    } else {
      std::printf("[telemetry] scrape server bind failed (no loopback?); "
                  "socket path skipped\n");
    }
  }

  const bool ok = session.finish();
  std::printf("\n[telemetry] KDD/Fin1 instrumented replay: %llu requests, "
              "mean %.2f ms, %zu buckets -> %s/{metrics.prom,snapshot.json,"
              "timeseries.jsonl,trace.json,health.json,flight.json} "
              "(%s, scrape %s)\n",
              static_cast<unsigned long long>(r.requests),
              r.mean_response_ms(), session.series().samples().size(), out_dir,
              ok ? "ok" : "WRITE FAILED", scrape_ok ? "ok" : "FAILED");
  return ok && scrape_ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kdd;
  const char* telemetry_dir = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--telemetry") == 0) {
      telemetry_dir = "telemetry-fig9";
    } else if (std::strncmp(argv[i], "--telemetry=", 12) == 0) {
      telemetry_dir = argv[i] + 12;
    }
  }
  const double scale = experiment_scale();
  bench::banner("Figure 9", "average response time, open-loop trace replay", scale);

  // 1 GiB cache at full scale, shrunk with the workload.
  const auto cache_pages =
      static_cast<std::uint64_t>(262144.0 * scale);

  TextTable table({"Workload", "Nossd", "WA", "WT", "LeavO", "KDD", "KDD vs Nossd"});
  for (const char* workload : {"Fin1", "Fin2", "Hm0", "Web0"}) {
    Trace trace = generate_preset(workload, scale);
    // Restore the native arrival rate: the scaled trace carries scale*N
    // requests, so it should span scale * native duration.
    rescale_duration(trace, static_cast<SimTime>(
                                static_cast<double>(trace.duration_us()) * scale));
    std::vector<std::string> row{workload};
    double nossd_ms = 0, kdd_ms = 0;
    for (const PolicyKind kind : {PolicyKind::kNossd, PolicyKind::kWA, PolicyKind::kWT,
                                  PolicyKind::kLeavO, PolicyKind::kKdd}) {
      PolicyConfig cfg = PolicyConfig::paper();
      cfg.ssd_pages = cache_pages;
      cfg.delta_ratio_mean = 0.25;
      const RaidGeometry geo = paper_geometry(compute_stats(trace).max_page);
      auto policy = make_policy(kind, cfg, geo);
      EventSimulator sim(paper_sim_config(geo.num_disks), policy.get());
      const SimResult r = sim.run_open_loop(trace);
      const double ms = r.mean_response_ms();
      if (kind == PolicyKind::kNossd) nossd_ms = ms;
      if (kind == PolicyKind::kKdd) kdd_ms = ms;
      row.push_back(TextTable::num(ms, 2));
    }
    row.push_back(bench::cut_pct(1.0 - kdd_ms / nossd_ms));
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("\n(mean response time in ms; paper: KDD -41.7/-61.2/-28.0/-30.1%% vs Nossd)\n");
  if (telemetry_dir != nullptr) {
    if (!run_telemetry_replay(telemetry_dir, scale, cache_pages)) return 1;
  }
  return 0;
}
