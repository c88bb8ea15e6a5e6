// Ablation: crash-recovery cost vs. metadata partition size.
//
// Section III-C: "configuring the persistent log with more metadata pages
// can reduce the cleaning cost at the expense of crash recovery
// performance" — a bigger partition means fewer GC rewrites while running
// but more log pages to scan after a power failure. This bench measures
// both sides: steady-state metadata page writes, and the number of log
// pages replayed (plus wall-clock time) to rebuild the primary map.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "blockdev/ssd_model.hpp"
#include "compress/content.hpp"
#include "trace/zipf_workload.hpp"

int main() {
  using namespace kdd;
  const double scale = experiment_scale();
  bench::banner("Ablation", "metadata partition size vs crash-recovery cost", scale);

  const auto ssd_pages =
      std::max<std::uint64_t>(4096, static_cast<std::uint64_t>(32768.0 * scale * 4));
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 16;
  geo.disk_pages = (ssd_pages * 4 / geo.data_disks() / geo.chunk_pages + 2) *
                   geo.chunk_pages;

  TextTable table({"Partition", "Metadata writes", "Log GC passes", "Pages replayed",
                   "Recovery (ms)"});
  for (const double frac : {0.0045, 0.0059, 0.0098, 0.02, 0.05}) {
    RaidArray array(geo);
    SsdConfig scfg;
    scfg.logical_pages = ssd_pages;
    SsdModel ssd(scfg);
    NvramState nvram(kPageSize, 255);
    PolicyConfig cfg = PolicyConfig::paper();
    cfg.ssd_pages = ssd_pages;
    cfg.metadata_fraction = frac;
    auto kdd = std::make_unique<KddCache>(cfg, &array, &ssd, &nvram);

    // Churn the cache hard so the log sees sustained insert/evict traffic.
    const ContentGenerator gen(1);
    Rng rng(2);
    std::unordered_map<Lba, Page> current;
    const std::uint64_t footprint = ssd_pages * 3;
    for (std::uint64_t i = 0; i < ssd_pages * 8; ++i) {
      const Lba lba = rng.next_below(footprint);
      auto it = current.find(lba);
      if (it == current.end() || rng.next_bool(0.3)) {
        Page next =
            it == current.end() ? gen.base_page(lba) : gen.mutate(it->second, 0.25, rng);
        kdd->write(lba, next);
        current[lba] = std::move(next);
      } else {
        Page buf = make_page();
        kdd->read(lba, buf);
      }
    }
    const CacheStats before = kdd->stats();
    const std::uint64_t log_pages = nvram.log_tail - nvram.log_head;
    const std::uint64_t gc = kdd->metadata_log().gc_passes();

    // Power failure: drop the instance, rebuild from log + NVRAM, timed.
    kdd.reset();
    const auto t0 = std::chrono::steady_clock::now();
    KddCache recovered(cfg, &array, &ssd, &nvram, /*recover=*/true);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    table.add_row({bench::pct(frac),
                   std::to_string(before.metadata_ssd_writes()),
                   std::to_string(gc),
                   std::to_string(log_pages),
                   TextTable::num(ms, 2)});
  }
  table.print();
  std::printf("\nBigger partitions: fewer GC rewrites at runtime, more pages to scan "
              "(and more DRAM-map rebuild work) after a crash — Section III-C's "
              "trade-off, measured.\n");
  return 0;
}
