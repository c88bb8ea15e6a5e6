// The paper's evaluation claims, asserted as tests.
//
// Each TEST checks one qualitative statement from Section IV (orderings,
// crossovers, "reduced by up to" directions) on scaled-down versions of the
// corresponding experiments. The expensive sweeps run once in the fixture's
// SetUpTestSuite and are shared by all assertions.
#include <gtest/gtest.h>

#include <map>

#include "harness/harness.hpp"
#include "kdd/kdd_cache.hpp"
#include "trace/generators.hpp"
#include "trace/zipf_workload.hpp"

namespace kdd {
namespace {

constexpr double kScale = 0.06;

struct SweepResult {
  double hit_ratio = 0.0;
  std::uint64_t ssd_writes = 0;
};

/// Results keyed by (workload, policy label, cache fraction).
using SweepTable = std::map<std::string, std::map<std::string, std::map<int, SweepResult>>>;

class PaperClaims : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    results_ = new SweepTable;
    for (const char* workload : {"Fin1", "Hm0", "Fin2", "Web0"}) {
      const Trace trace = generate_preset(workload, kScale);
      const TraceStats tstats = compute_stats(trace);
      const RaidGeometry geo = paper_geometry(tstats.max_page);
      for (const int frac_pct : {10, 40}) {
        const auto ssd_pages = static_cast<std::uint64_t>(
            frac_pct / 100.0 * static_cast<double>(tstats.unique_pages_total));
        auto run = [&](PolicyKind kind, double locality, const std::string& label) {
          PolicyConfig cfg = PolicyConfig::paper();
          cfg.ssd_pages = ssd_pages;
          cfg.delta_ratio_mean = locality;
          auto policy = make_policy(kind, cfg, geo);
          const CacheStats s = run_counter_trace(*policy, trace, geo.data_pages());
          (*results_)[workload][label][frac_pct] = {s.hit_ratio(),
                                                    s.total_ssd_writes()};
        };
        run(PolicyKind::kWA, 0.25, "WA");
        run(PolicyKind::kWT, 0.25, "WT");
        run(PolicyKind::kLeavO, 0.25, "LeavO");
        run(PolicyKind::kKdd, 0.50, "KDD-50");
        run(PolicyKind::kKdd, 0.25, "KDD-25");
        run(PolicyKind::kKdd, 0.12, "KDD-12");
      }
    }
  }
  static void TearDownTestSuite() {
    delete results_;
    results_ = nullptr;
  }

  static const SweepResult& at(const std::string& workload, const std::string& policy,
                               int frac) {
    return (*results_)[workload][policy][frac];
  }

  static SweepTable* results_;
};

SweepTable* PaperClaims::results_ = nullptr;

// --- Figure 5: hit ratios, write-dominant traces ---------------------------

TEST_F(PaperClaims, Fig5_WtHasHighestHitRatio) {
  for (const char* w : {"Fin1", "Hm0"}) {
    for (const int f : {10, 40}) {
      EXPECT_GT(at(w, "WT", f).hit_ratio, at(w, "KDD-12", f).hit_ratio) << w << f;
      EXPECT_GT(at(w, "WT", f).hit_ratio, at(w, "LeavO", f).hit_ratio) << w << f;
    }
  }
}

TEST_F(PaperClaims, Fig5_KddConvincinglyOutperformsLeavO) {
  for (const char* w : {"Fin1", "Hm0"}) {
    for (const int f : {10, 40}) {
      EXPECT_GT(at(w, "KDD-25", f).hit_ratio, at(w, "LeavO", f).hit_ratio) << w << f;
    }
  }
}

TEST_F(PaperClaims, Fig5_StrongerContentLocalityHigherHitRatio) {
  for (const char* w : {"Fin1", "Hm0"}) {
    for (const int f : {10, 40}) {
      EXPECT_GE(at(w, "KDD-12", f).hit_ratio, at(w, "KDD-25", f).hit_ratio) << w << f;
      EXPECT_GE(at(w, "KDD-25", f).hit_ratio, at(w, "KDD-50", f).hit_ratio) << w << f;
    }
  }
}

// --- Figure 6: SSD write traffic, write-dominant traces --------------------

TEST_F(PaperClaims, Fig6_TrafficOrderingWaKddWtLeavO) {
  for (const char* w : {"Fin1", "Hm0"}) {
    for (const int f : {10, 40}) {
      EXPECT_LT(at(w, "WA", f).ssd_writes, at(w, "KDD-12", f).ssd_writes) << w << f;
      EXPECT_LT(at(w, "KDD-12", f).ssd_writes, at(w, "KDD-25", f).ssd_writes) << w << f;
      EXPECT_LT(at(w, "KDD-25", f).ssd_writes, at(w, "KDD-50", f).ssd_writes) << w << f;
      EXPECT_LT(at(w, "KDD-50", f).ssd_writes, at(w, "WT", f).ssd_writes) << w << f;
      EXPECT_LT(at(w, "WT", f).ssd_writes, at(w, "LeavO", f).ssd_writes) << w << f;
    }
  }
}

TEST_F(PaperClaims, Fig6_ReductionGrowsWithCacheSize) {
  for (const char* w : {"Fin1", "Hm0"}) {
    auto reduction = [&](int f) {
      return 1.0 - static_cast<double>(at(w, "KDD-25", f).ssd_writes) /
                       static_cast<double>(at(w, "WT", f).ssd_writes);
    };
    EXPECT_GT(reduction(40), reduction(10)) << w;
    EXPECT_GT(reduction(40), 0.35) << w;  // the paper reports 45-68 % "up to"
  }
}

TEST_F(PaperClaims, Fig6_LifetimeExtensionVsLeavO) {
  // Paper: up to 5.1x. At this scale and the largest swept cache we demand
  // at least 2.5x for KDD-12.
  for (const char* w : {"Fin1", "Hm0"}) {
    const double ratio = static_cast<double>(at(w, "LeavO", 40).ssd_writes) /
                         static_cast<double>(at(w, "KDD-12", 40).ssd_writes);
    EXPECT_GT(ratio, 2.5) << w;
  }
}

// --- Figure 7: hit ratios, read-dominant traces ----------------------------

TEST_F(PaperClaims, Fig7_LeavOSmallestHitRatios) {
  for (const char* w : {"Fin2", "Web0"}) {
    for (const int f : {10, 40}) {
      EXPECT_LE(at(w, "LeavO", f).hit_ratio, at(w, "KDD-25", f).hit_ratio + 0.005)
          << w << f;
      EXPECT_LT(at(w, "LeavO", f).hit_ratio, at(w, "WT", f).hit_ratio) << w << f;
    }
  }
}

TEST_F(PaperClaims, Fig7_Web0AnomalyKddRivalsWtAtSmallCache) {
  // "KDD even outperforms WT when the cache size is small" — we assert KDD-12
  // reaches at least parity (within 1 pp) at the small cache point.
  EXPECT_GT(at("Web0", "KDD-12", 10).hit_ratio,
            at("Web0", "WT", 10).hit_ratio - 0.01);
}

// --- Figure 8: SSD write traffic, read-dominant traces ---------------------

TEST_F(PaperClaims, Fig8_ReductionsSmallerThanWriteDominant) {
  auto reduction = [&](const char* w) {
    return 1.0 - static_cast<double>(at(w, "KDD-25", 10).ssd_writes) /
                     static_cast<double>(at(w, "WT", 10).ssd_writes);
  };
  EXPECT_LT(reduction("Fin2"), reduction("Fin1"));
  EXPECT_LT(reduction("Web0"), reduction("Hm0"));
}

TEST_F(PaperClaims, Fig8_Fin2LargeCacheKdd12BeatsWa) {
  // "For Fin2 under large cache sizes ... KDD-12% even has less cache writes
  // than WA."
  EXPECT_LT(at("Fin2", "KDD-12", 40).ssd_writes, at("Fin2", "WA", 40).ssd_writes);
}

// --- Figures 9/10: response times -------------------------------------------

TEST_F(PaperClaims, Fig10_LatencyOrderingUnderZipf) {
  const RaidGeometry geo = paper_geometry(30000);
  std::map<std::string, double> ms;
  for (const auto& [label, kind] :
       std::map<std::string, PolicyKind>{{"Nossd", PolicyKind::kNossd},
                                         {"WT", PolicyKind::kWT},
                                         {"WA", PolicyKind::kWA},
                                         {"LeavO", PolicyKind::kLeavO},
                                         {"KDD", PolicyKind::kKdd}}) {
    PolicyConfig cfg = PolicyConfig::paper();
    cfg.ssd_pages = 8192;
    cfg.delta_ratio_mean = 0.25;
    auto policy = make_policy(kind, cfg, geo);
    EventSimulator sim(paper_sim_config(geo.num_disks), policy.get());
    ZipfWorkloadConfig wcfg;
    wcfg.working_set_pages = 16384;
    wcfg.total_requests = 6000;
    wcfg.read_rate = 0.25;
    wcfg.array_pages = geo.data_pages();
    ZipfWorkload workload(wcfg);
    ms[label] = sim.run_closed_loop(workload, 16).mean_response_ms();
  }
  // KDD ~ LeavO, both far below WT/WA/Nossd (write-dominant mix).
  EXPECT_LT(ms["KDD"], ms["WT"] * 0.7);
  EXPECT_LT(ms["KDD"], ms["Nossd"] * 0.7);
  EXPECT_NEAR(ms["KDD"], ms["LeavO"], ms["LeavO"] * 0.25);
  // WT/WA bring little at 25 % reads (paper: they only help read-heavy mixes).
  EXPECT_GT(ms["WT"], ms["Nossd"] * 0.75);
}

TEST_F(PaperClaims, Fig10_WtBeatsNossdOnlyAtHighReadRates) {
  const RaidGeometry geo = paper_geometry(30000);
  auto run = [&](PolicyKind kind, double read_rate) {
    PolicyConfig cfg = PolicyConfig::paper();
    cfg.ssd_pages = 8192;
    auto policy = make_policy(kind, cfg, geo);
    EventSimulator sim(paper_sim_config(geo.num_disks), policy.get());
    ZipfWorkloadConfig wcfg;
    wcfg.working_set_pages = 16384;
    wcfg.total_requests = 5000;
    wcfg.read_rate = read_rate;
    wcfg.array_pages = geo.data_pages();
    ZipfWorkload workload(wcfg);
    return sim.run_closed_loop(workload, 16).mean_response_ms();
  };
  const double gain_low = run(PolicyKind::kNossd, 0.0) / run(PolicyKind::kWT, 0.0);
  const double gain_high = run(PolicyKind::kNossd, 0.75) / run(PolicyKind::kWT, 0.75);
  EXPECT_GT(gain_high, gain_low);  // caching pays off as reads grow
  EXPECT_LT(gain_low, 1.1);        // ~no benefit on pure writes
  EXPECT_GT(gain_high, 1.2);       // clear benefit at 75 % reads
}

TEST_F(PaperClaims, Fig9_TraceReplayOrdering) {
  // Open-loop replay: KDD ~ LeavO, both well ahead of everything; WT/WA gain
  // clearly over Nossd on the read-dominant Fin2 but little on the
  // write-dominant Fin1.
  auto run_all = [](const char* workload) {
    Trace trace = generate_preset(workload, kScale);
    rescale_duration(trace, static_cast<SimTime>(
                                static_cast<double>(trace.duration_us()) * kScale));
    const RaidGeometry geo = paper_geometry(compute_stats(trace).max_page);
    std::map<std::string, double> ms;
    for (const auto& [label, kind] :
         std::map<std::string, PolicyKind>{{"Nossd", PolicyKind::kNossd},
                                           {"WT", PolicyKind::kWT},
                                           {"LeavO", PolicyKind::kLeavO},
                                           {"KDD", PolicyKind::kKdd}}) {
      PolicyConfig cfg = PolicyConfig::paper();
      cfg.ssd_pages = static_cast<std::uint64_t>(262144.0 * kScale);
      cfg.delta_ratio_mean = 0.25;
      auto policy = make_policy(kind, cfg, geo);
      EventSimulator sim(paper_sim_config(geo.num_disks), policy.get());
      ms[label] = sim.run_open_loop(trace).mean_response_ms();
    }
    return ms;
  };
  const auto fin1 = run_all("Fin1");
  EXPECT_LT(fin1.at("KDD"), fin1.at("Nossd") * 0.6);
  EXPECT_LT(fin1.at("KDD"), fin1.at("WT") * 0.6);
  EXPECT_NEAR(fin1.at("KDD"), fin1.at("LeavO"), fin1.at("LeavO") * 0.3);
  const auto fin2 = run_all("Fin2");
  EXPECT_LT(fin2.at("WT"), fin2.at("Nossd") * 0.8);  // caching pays on Fin2
  EXPECT_LT(fin2.at("KDD"), fin2.at("WT"));
}

TEST_F(PaperClaims, PureReadWorkloadDegradesLeavOAndKddToWt) {
  // Section IV-B3 omits the 100 % read rate "because in that case both LeavO
  // and KDD will degrade to WT": with no writes there are no deltas and no
  // version pairs, so all three see identical fill traffic (KDD additionally
  // persists its mappings, a ~1 % overhead).
  const RaidGeometry geo = paper_geometry(30000);
  ZipfWorkloadConfig wcfg;
  wcfg.working_set_pages = 16384;
  wcfg.total_requests = 30000;
  wcfg.read_rate = 1.0;
  std::map<std::string, CacheStats> s;
  for (const auto& [label, kind] :
       std::map<std::string, PolicyKind>{{"WT", PolicyKind::kWT},
                                         {"LeavO", PolicyKind::kLeavO},
                                         {"KDD", PolicyKind::kKdd}}) {
    PolicyConfig cfg = PolicyConfig::paper();
    cfg.ssd_pages = 8192;
    auto policy = make_policy(kind, cfg, geo);
    const Trace trace = generate_zipf_trace(wcfg);
    s[label] = run_counter_trace(*policy, trace, geo.data_pages());
  }
  // With no writes, the *data* traffic (fills) of all three is identical;
  // LeavO/KDD additionally persist their mappings (LeavO's direct-mapped
  // table costs visibly more than KDD's batched log even here).
  auto data_writes = [&](const char* label) {
    return static_cast<double>(s[label].total_ssd_writes() -
                               s[label].metadata_ssd_writes());
  };
  const double wt = data_writes("WT");
  EXPECT_NEAR(data_writes("KDD"), wt, wt * 0.02);
  EXPECT_NEAR(data_writes("LeavO"), wt, wt * 0.02);
  EXPECT_LT(s["KDD"].metadata_ssd_writes(), s["LeavO"].metadata_ssd_writes());
  // Hit ratios converge too (the cache managers behave identically).
  EXPECT_NEAR(s["KDD"].hit_ratio(), s["WT"].hit_ratio(), 0.02);
}

// --- Figure 4: metadata I/O share -------------------------------------------

TEST_F(PaperClaims, Fig4_MetadataShareSmallAtDefaultPartition) {
  // Paper: < 1.8 % at the 0.59 % partition across all four workloads. Allow
  // 3 % at this reduced scale.
  for (const char* w : {"Fin1", "Fin2", "Hm0", "Web0"}) {
    const Trace trace = generate_preset(w, kScale);
    const TraceStats tstats = compute_stats(trace);
    const RaidGeometry geo = paper_geometry(tstats.max_page);
    PolicyConfig cfg = PolicyConfig::paper();
    cfg.ssd_pages = static_cast<std::uint64_t>(
        0.2 * static_cast<double>(tstats.unique_pages_total));
    cfg.delta_ratio_mean = 0.25;
    KddCache kdd(cfg, geo);
    const CacheStats s = run_counter_trace(kdd, trace, geo.data_pages());
    const double share = static_cast<double>(s.metadata_ssd_writes()) /
                         static_cast<double>(s.total_ssd_writes());
    EXPECT_LT(share, 0.03) << w;
  }
}

}  // namespace
}  // namespace kdd
