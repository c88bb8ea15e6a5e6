// Quickstart: assemble a KDD-cached RAID-5 array and push real data
// through it.
//
//   RaidArray  — 5 memory-backed disks, 64 KiB chunks, real parity
//   SsdModel   — flash SSD with an FTL, GC and wear accounting
//   KddCache   — the paper's cache: data zone + delta zone + metadata log
//
// The example writes versioned pages with realistic content locality, reads
// them back (hits combine DAZ pages with compressed deltas), then flushes
// the deferred parity updates and verifies the array scrubs clean.
#include <cstdio>

#include "blockdev/ssd_model.hpp"
#include "common/stats.hpp"
#include "compress/content.hpp"
#include "kdd/kdd_cache.hpp"
#include "raid/raid_array.hpp"

int main() {
  using namespace kdd;

  // 1. Primary storage: RAID-5 over 5 disks (the paper's testbed shape).
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 16;  // 64 KiB chunks
  geo.disk_pages = 16384;
  RaidArray array(geo);

  // 2. Cache device: a small SSD with a real FTL.
  SsdConfig ssd_cfg;
  ssd_cfg.logical_pages = 8192;  // 32 MiB cache
  SsdModel ssd(ssd_cfg);

  // 3. KDD on top.
  PolicyConfig cfg;
  cfg.ssd_pages = ssd_cfg.logical_pages;
  KddCache kdd(cfg, &array, &ssd);

  // 4. A workload with content locality: each write changes ~20 % of a page.
  const ContentGenerator gen(7);
  Rng rng(8);
  std::printf("writing 2000 pages, then updating hot pages with ~20%% churn...\n");
  std::vector<Page> current(2000);
  for (Lba lba = 0; lba < 2000; ++lba) {
    current[lba] = gen.base_page(lba);
    kdd.write(lba, current[lba]);
  }
  for (int i = 0; i < 6000; ++i) {
    const Lba lba = rng.next_below(400);  // hot subset
    current[lba] = gen.mutate(current[lba], 0.20, rng);
    kdd.write(lba, current[lba]);
  }

  // 5. Read back through the cache (old pages are served as DAZ + delta).
  Page buf = make_page();
  for (Lba lba = 0; lba < 2000; ++lba) {
    if (kdd.read(lba, buf) != IoStatus::kOk || buf != current[lba]) {
      std::printf("MISMATCH at page %llu\n", static_cast<unsigned long long>(lba));
      return 1;
    }
  }
  std::printf("all 2000 pages read back correctly\n\n");

  // 6. Report.
  const CacheStats s = kdd.stats();
  std::printf("hit ratio:         %s\n", format_pct(s.hit_ratio()).c_str());
  std::printf("stale parity:      %llu groups pending\n",
              static_cast<unsigned long long>(kdd.stale_groups()));
  std::printf("old / delta pages: %llu / %llu\n",
              static_cast<unsigned long long>(kdd.old_pages()),
              static_cast<unsigned long long>(kdd.dez_pages()));
  std::printf("SSD write traffic: %s (fills %llu, allocs %llu, delta pages %llu, metadata %llu)\n",
              format_bytes(s.write_traffic_bytes()).c_str(),
              static_cast<unsigned long long>(s.ssd_writes[0]),
              static_cast<unsigned long long>(s.ssd_writes[1]),
              static_cast<unsigned long long>(s.ssd_writes[3]),
              static_cast<unsigned long long>(s.metadata_ssd_writes()));
  const SsdWearStats wear = ssd.wear();
  std::printf("SSD wear:          %llu NAND writes, WA %.2f, %llu erases\n\n",
              static_cast<unsigned long long>(wear.nand_page_writes),
              wear.write_amplification(),
              static_cast<unsigned long long>(wear.block_erases));

  // 7. Flush deferred parity and verify the array is fully consistent.
  kdd.flush();
  const bool clean = array.scrub().empty();
  std::printf("after flush: array scrub %s\n", clean ? "CLEAN" : "INCONSISTENT");
  return clean ? 0 : 1;
}
