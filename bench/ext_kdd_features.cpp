// Extension bench: KDD feature variations beyond the paper's evaluation —
//  * RAID-6 (the paper's design supports it; double parity makes small
//    writes even more expensive, so deferring them pays off even more),
//  * residency: the paper's always-admit/drop vs the default LARC-style
//    second-miss admission (Section V-C: "complementary to KDD") with
//    re-referenced pages kept at destage,
//  * SSD GC policy / wear-leveling interaction with KDD's traffic shape.
#include <cstdio>
#include <unordered_map>

#include "bench_util.hpp"
#include "blockdev/ssd_model.hpp"
#include "compress/content.hpp"
#include "policies/dedup_cache.hpp"
#include "sim/event_sim.hpp"
#include "trace/zipf_workload.hpp"

int main() {
  using namespace kdd;
  const double scale = experiment_scale();
  bench::banner("Extension", "KDD on RAID-6, residency policies, FTL policies",
                scale);

  const auto cache_pages = static_cast<std::uint64_t>(131072.0 * scale);
  const auto wss_pages = static_cast<std::uint64_t>(262144.0 * scale);
  const auto total_requests = static_cast<std::uint64_t>(524288.0 * scale);

  {
    std::printf("(a) RAID-5 vs RAID-6 under KDD (closed-loop Zipf, 25%% reads)\n");
    TextTable t({"Level", "Policy", "Mean resp (ms)", "Disk writes/request"});
    for (const RaidLevel level : {RaidLevel::kRaid5, RaidLevel::kRaid6}) {
      RaidGeometry geo = paper_geometry(wss_pages * 2);
      geo.level = level;
      if (level == RaidLevel::kRaid6) geo.num_disks = 6;  // same data disks
      for (const PolicyKind kind : {PolicyKind::kWT, PolicyKind::kKdd}) {
        PolicyConfig cfg;
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
        const SimResult r = sim.run_closed_loop(workload, 16);
        const CacheStats s = policy->stats();
        t.add_row({level == RaidLevel::kRaid5 ? "RAID-5" : "RAID-6",
                   policy_kind_name(kind), TextTable::num(r.mean_response_ms(), 2),
                   TextTable::num(static_cast<double>(s.disk_writes) /
                                      static_cast<double>(total_requests), 2)});
      }
    }
    t.print();
    std::printf("(RAID-6 doubles the parity cost of small writes; KDD's deferral "
                "matters even more)\n\n");
  }

  {
    std::printf("(b) Residency on a scan-polluted workload\n");
    const RaidGeometry geo = paper_geometry(wss_pages * 4);
    TextTable t({"Residency", "Hit ratio", "SSD writes (GiB)", "Read fills"});
    for (const bool paper : {true, false}) {
      PolicyConfig cfg = paper ? PolicyConfig::paper() : PolicyConfig{};
      cfg.ssd_pages = cache_pages / 2;
      cfg.delta_ratio_mean = 0.25;
      KddCache kdd(cfg, geo);
      // Zipf core + one-touch scan pollution.
      ZipfWorkloadConfig wcfg;
      wcfg.working_set_pages = wss_pages;
      wcfg.total_requests = total_requests / 2;
      wcfg.read_rate = 0.5;
      wcfg.array_pages = geo.data_pages();
      Trace trace = generate_zipf_trace(wcfg);
      Rng rng(9);
      for (std::uint64_t i = 0; i < total_requests / 4; ++i) {
        trace.records.push_back(
            {0, wss_pages + i % (geo.data_pages() - wss_pages), 1, true});
      }
      const CacheStats s = run_counter_trace(kdd, trace, geo.data_pages());
      t.add_row({paper ? "always admit, drop (paper)" : "2nd miss, keep re-referenced",
                 bench::pct(s.hit_ratio()),
                 TextTable::num(static_cast<double>(s.write_traffic_bytes()) /
                                    static_cast<double>(kGiB), 2),
                 std::to_string(s.ssd_writes[static_cast<int>(SsdWriteKind::kReadFill)])});
    }
    t.print();
    std::printf("\n");
  }

  {
    std::printf("(c) FTL GC policy under KDD-shaped traffic (real flash model)\n");
    TextTable t({"GC policy", "Wear leveling", "WA", "Erase spread (max-mean)"});
    for (const GcPolicy policy : {GcPolicy::kGreedy, GcPolicy::kCostBenefit}) {
      for (const std::uint32_t wl : {0u, 8u}) {
        SsdConfig scfg;
        scfg.logical_pages = 4096;
        scfg.pages_per_block = 32;
        scfg.gc_policy = policy;
        scfg.wear_level_spread = wl;
        SsdModel ssd(scfg);
        Rng rng(11);
        Page page = make_page();
        // KDD-like mix: 70 % small hot region (DEZ churn), 30 % uniform.
        for (Lba lba = 0; lba < ssd.num_pages(); ++lba) ssd.write(lba, page);
        for (int i = 0; i < 120000; ++i) {
          const Lba lba = rng.next_bool(0.7) ? rng.next_below(ssd.num_pages() / 8)
                                             : rng.next_below(ssd.num_pages());
          ssd.write(lba, page);
        }
        const SsdWearStats wear = ssd.wear();
        t.add_row({policy == GcPolicy::kGreedy ? "greedy" : "cost-benefit",
                   wl ? "on" : "off", TextTable::num(wear.write_amplification(), 2),
                   TextTable::num(static_cast<double>(wear.max_erase_count) -
                                      wear.mean_erase_count, 1)});
      }
    }
    t.print();
    std::printf("\n");
  }

  {
    std::printf("(d) Content dedup (CacheDedup-style) vs delta compression (KDD)\n");
    // Real-content workload with BOTH kinds of content locality: 30%% of
    // writes duplicate an existing page (spatial), the rest mutate the
    // previous version by ~25%% (temporal).
    RaidGeometry geo;
    geo.level = RaidLevel::kRaid5;
    geo.num_disks = 5;
    geo.chunk_pages = 16;
    geo.disk_pages = 4096;
    const std::uint64_t ssd_cap = 1024;
    const int kOps = 30000;

    TextTable t({"Policy", "SSD writes", "Notes"});
    for (const char* which : {"WT", "WT+dedup", "KDD"}) {
      RaidArray array(geo);
      SsdConfig scfg;
      scfg.logical_pages = ssd_cap;
      SsdModel ssd(scfg);
      PolicyConfig cfg;
      cfg.ssd_pages = ssd_cap;
      std::unique_ptr<CachePolicy> policy;
      DedupCachePolicy* dedup = nullptr;
      if (std::string(which) == "WT") {
        policy = make_policy(PolicyKind::kWT, cfg, &array, &ssd);
      } else if (std::string(which) == "KDD") {
        policy = make_policy(PolicyKind::kKdd, cfg, &array, &ssd);
      } else {
        auto d = std::make_unique<DedupCachePolicy>(cfg, &array, &ssd);
        dedup = d.get();
        policy = std::move(d);
      }
      const ContentGenerator gen(3);
      Rng rng(4);
      std::unordered_map<Lba, Page> current;
      Page buf = make_page();
      for (int i = 0; i < kOps; ++i) {
        const Lba lba = rng.next_below(2048);
        if (rng.next_bool(0.3)) {
          policy->read(lba, buf, nullptr);
          continue;
        }
        Page data;
        if (rng.next_bool(0.3)) {
          data = gen.base_page(rng.next_below(64));  // duplicate pool
        } else {
          auto it = current.find(lba);
          data = it == current.end() ? gen.base_page(1000 + lba)
                                     : gen.mutate(it->second, 0.25, rng);
        }
        policy->write(lba, data, nullptr);
        current[lba] = std::move(data);
      }
      policy->flush(nullptr);
      std::string notes;
      if (dedup) {
        notes = std::to_string(dedup->dedup_hits()) + " dedup hits";
      }
      t.add_row({which, std::to_string(policy->stats().total_ssd_writes()),
                 notes});
    }
    t.print();
    std::printf("(dedup removes identical pages, KDD shrinks modified ones — "
                "orthogonal savings)\n");
  }
  return 0;
}
