#include "harness/harness.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <unordered_map>

#include "compress/content.hpp"
#include "kdd/kdd_cache.hpp"
#include "trace/generators.hpp"
#include "trace/zipf_workload.hpp"

namespace kdd {
namespace {

TEST(Harness, PolicyFactoryProducesAllKinds) {
  const RaidGeometry geo = paper_geometry(1000);
  PolicyConfig cfg;
  cfg.ssd_pages = 2048;
  for (const PolicyKind kind : {PolicyKind::kNossd, PolicyKind::kWT, PolicyKind::kWA,
                                PolicyKind::kLeavO, PolicyKind::kKdd, PolicyKind::kWB}) {
    auto policy = make_policy(kind, cfg, geo);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->name(), policy_kind_name(kind));
    // Smoke: one write, one read.
    EXPECT_EQ(policy->write(0, {}, nullptr), IoStatus::kOk);
    EXPECT_EQ(policy->read(0, {}, nullptr), IoStatus::kOk);
  }
}

TEST(Harness, PaperGeometryCoversRequestedFootprint) {
  for (const Lba max_page : {0ull, 999ull, 123456ull, 10'000'000ull}) {
    const RaidGeometry geo = paper_geometry(max_page);
    EXPECT_GT(geo.data_pages(), max_page);
    EXPECT_EQ(geo.num_disks, 5u);
    EXPECT_EQ(geo.chunk_pages, 16u);  // 64 KiB chunks
    EXPECT_EQ(geo.level, RaidLevel::kRaid5);
  }
}

TEST(Harness, ExperimentScaleParsesEnvironment) {
  ::setenv("KDD_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(experiment_scale(0.1), 0.5);
  ::setenv("KDD_SCALE", "2.5", 1);  // out of range: rejected, not ignored
  EXPECT_EXIT(experiment_scale(0.1), ::testing::ExitedWithCode(2), "KDD_SCALE=2.5");
  ::setenv("KDD_SCALE", "garbage", 1);
  EXPECT_EXIT(experiment_scale(0.1), ::testing::ExitedWithCode(2), "KDD_SCALE=garbage");
  ::setenv("KDD_SCALE", "", 1);
  EXPECT_DOUBLE_EQ(experiment_scale(0.1), 0.1);
  ::unsetenv("KDD_SCALE");
  EXPECT_DOUBLE_EQ(experiment_scale(0.33), 0.33);
}

TEST(Harness, EnvironmentParsersRejectMalformedValues) {
  EXPECT_EQ(parse_experiment_scale("0.05"), 0.05);
  EXPECT_EQ(parse_experiment_scale("1"), 1.0);
  EXPECT_EQ(parse_experiment_scale("1e-2"), 0.01);
  for (const char* bad : {"0.05junk", "abc", "", " 0.5", "+0.5", "0", "-0.1", "1.01",
                          "nan", "inf"}) {
    EXPECT_EQ(parse_experiment_scale(bad), std::nullopt) << '"' << bad << '"';
  }

  EXPECT_EQ(parse_sweep_threads("1", 4), 1u);
  EXPECT_EQ(parse_sweep_threads("3", 4), 3u);
  EXPECT_EQ(parse_sweep_threads("100000", 4), 4u);  // capped at the host
  EXPECT_EQ(parse_sweep_threads("8", 0), 1u);       // unknown host: serial
  for (const char* bad : {"8x", "x8", "", " 2", "+2", "0", "-1", "2.5",
                          "18446744073709551616"}) {
    EXPECT_EQ(parse_sweep_threads(bad, 4), std::nullopt) << '"' << bad << '"';
  }
}

TEST(Harness, RunCounterTraceSplitsMultiPageRequests) {
  const RaidGeometry geo = paper_geometry(1000);
  PolicyConfig cfg;
  cfg.ssd_pages = 2048;
  auto policy = make_policy(PolicyKind::kWT, cfg, geo);
  Trace t;
  t.records = {{0, 10, 4, true}, {1, 10, 4, true}};
  const CacheStats s = run_counter_trace(*policy, t, geo.data_pages());
  // 4 page-misses then 4 page-hits.
  EXPECT_EQ(s.read_misses, 4u);
  EXPECT_EQ(s.read_hits, 4u);
}

TEST(Harness, RunCounterTraceWrapsOutOfRangeAddresses) {
  const RaidGeometry geo = paper_geometry(100);
  PolicyConfig cfg;
  cfg.ssd_pages = 2048;
  auto policy = make_policy(PolicyKind::kNossd, cfg, geo);
  Trace t;
  t.records = {{0, geo.data_pages() + 7, 1, false}};  // beyond capacity
  const CacheStats s = run_counter_trace(*policy, t, geo.data_pages());
  EXPECT_EQ(s.write_misses, 1u);  // wrapped, not crashed
}

TEST(Harness, DeterministicAcrossRuns) {
  // Same seed, same config => bit-identical statistics (required for
  // reproducible experiment tables).
  auto run = [] {
    const RaidGeometry geo = paper_geometry(8191);
    PolicyConfig cfg;
    cfg.ssd_pages = 2048;
    cfg.seed = 42;
    KddCache kdd(cfg, geo);
    ZipfWorkloadConfig wcfg;
    wcfg.working_set_pages = 4096;
    wcfg.total_requests = 20000;
    wcfg.read_rate = 0.3;
    wcfg.seed = 9;
    const Trace trace = generate_zipf_trace(wcfg);
    return run_counter_trace(kdd, trace, geo.data_pages());
  };
  const CacheStats a = run();
  const CacheStats b = run();
  EXPECT_EQ(a.total_ssd_writes(), b.total_ssd_writes());
  EXPECT_EQ(a.read_hits, b.read_hits);
  EXPECT_EQ(a.write_hits, b.write_hits);
  EXPECT_EQ(a.disk_writes, b.disk_writes);
}

TEST(Harness, TimedSimulationIsDeterministic) {
  auto run = [] {
    const RaidGeometry geo = paper_geometry(8191);
    PolicyConfig cfg;
    cfg.ssd_pages = 2048;
    auto policy = make_policy(PolicyKind::kKdd, cfg, geo);
    EventSimulator sim(paper_sim_config(geo.num_disks), policy.get());
    ZipfWorkloadConfig wcfg;
    wcfg.working_set_pages = 4096;
    wcfg.total_requests = 2000;
    wcfg.read_rate = 0.25;
    wcfg.array_pages = geo.data_pages();
    ZipfWorkload workload(wcfg);
    return sim.run_closed_loop(workload, 8);
  };
  const SimResult a = run();
  const SimResult b = run();
  EXPECT_EQ(a.makespan_us, b.makespan_us);
  EXPECT_DOUBLE_EQ(a.latency.mean_us(), b.latency.mean_us());
}

TEST(Harness, WearOrderingMatchesTrafficOrderingOnRealFlash) {
  // End-to-end endurance: running the same workload with real content
  // through real SSDs, KDD must consume less NAND endurance than WT.
  const RaidGeometry geo = paper_geometry(4095);
  ZipfWorkloadConfig wcfg;
  wcfg.working_set_pages = 2048;
  wcfg.total_requests = 30000;
  wcfg.read_rate = 0.25;
  wcfg.array_pages = geo.data_pages();

  double consumed[2] = {};
  int i = 0;
  for (const PolicyKind kind : {PolicyKind::kKdd, PolicyKind::kWT}) {
    RaidArray array(geo);
    SsdConfig scfg;
    scfg.logical_pages = 1024;
    scfg.pages_per_block = 16;
    SsdModel ssd(scfg);
    PolicyConfig cfg;
    cfg.ssd_pages = 1024;
    cfg.delta_ratio_mean = 0.25;
    auto policy = make_policy(kind, cfg, &array, &ssd);
    const ContentGenerator gen(1);
    Rng rng(2);
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
                                        : gen.mutate(it->second, 0.2, rng);
        policy->write(r.page, next, nullptr);
        current[r.page] = std::move(next);
      }
    }
    policy->flush(nullptr);
    consumed[i++] = ssd.endurance_consumed();
  }
  EXPECT_LT(consumed[0], consumed[1]);  // KDD < WT
}

}  // namespace
}  // namespace kdd
