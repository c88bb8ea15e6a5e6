#include "kdd/kdd_cache.hpp"

#include <gtest/gtest.h>

#include "compress/content.hpp"
#include "harness/harness.hpp"
#include "raid/rebuild.hpp"
#include "test_util.hpp"
#include "trace/zipf_workload.hpp"

namespace kdd {
namespace {

using testing::ReferenceModel;
using testing::test_page;

RaidGeometry small_geo() {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 256;
  return geo;
}

/// A 256-page cache SSD; pass PolicyConfig::paper() for the paper's
/// always-admit residency.
PolicyConfig small_config(PolicyConfig cfg = {}) {
  cfg.ssd_pages = 256;
  cfg.ways = 8;
  return cfg;
}

SsdConfig small_ssd() {
  SsdConfig cfg;
  cfg.logical_pages = 256;
  cfg.pages_per_block = 16;
  return cfg;
}

// ---------------------------------------------------------------------------
// Counter-mode state machine
// ---------------------------------------------------------------------------

TEST(KddCounter, WriteHitDefersParityAndStagesDelta) {
  KddCache kdd(small_config(PolicyConfig::paper()), small_geo());
  kdd.read(5, {}, nullptr);  // admit clean
  IoPlan plan;
  kdd.write(5, {}, &plan);
  EXPECT_EQ(kdd.old_pages(), 1u);
  EXPECT_EQ(kdd.staged_deltas(), 1u);
  EXPECT_EQ(kdd.stale_groups(), 1u);
  // The write-without-parity-update path: exactly one disk write, no disk read.
  std::size_t disk_writes = 0, disk_reads = 0;
  for (const auto& phase : plan.phases()) {
    for (const DeviceOp& op : phase) {
      if (op.target != DeviceOp::Target::kHdd) continue;
      (op.kind == IoKind::kWrite ? disk_writes : disk_reads)++;
    }
  }
  EXPECT_EQ(disk_writes, 1u);
  EXPECT_EQ(disk_reads, 0u);
}

TEST(KddCounter, WriteMissUsesConventionalParityUpdate) {
  KddCache kdd(small_config(), small_geo());
  IoPlan plan;
  kdd.write(5, {}, &plan);
  EXPECT_EQ(kdd.old_pages(), 0u);
  EXPECT_EQ(kdd.stale_groups(), 0u);
  std::size_t disk_ops = 0;
  for (const auto& phase : plan.phases()) {
    for (const DeviceOp& op : phase) {
      if (op.target == DeviceOp::Target::kHdd) ++disk_ops;
    }
  }
  EXPECT_EQ(disk_ops, 4u);  // RMW
}

TEST(KddCounter, StagingCommitPacksMultipleDeltasPerPage) {
  PolicyConfig cfg = small_config(PolicyConfig::paper());
  cfg.delta_ratio_mean = 0.12;  // high content locality: ~500 B deltas
  KddCache kdd(cfg, small_geo());
  // Create many write hits so staging overflows into DEZ pages.
  for (Lba lba = 0; lba < 40; ++lba) kdd.read(lba, {}, nullptr);
  for (Lba lba = 0; lba < 40; ++lba) kdd.write(lba, {}, nullptr);
  const CacheStats s = kdd.stats();
  const std::uint64_t commits =
      s.ssd_writes[static_cast<int>(SsdWriteKind::kDeltaCommit)];
  EXPECT_GT(commits, 0u);
  // 40 deltas of ~500 B pack ~7-8 per 4 KiB page.
  EXPECT_LT(commits + kdd.staged_deltas() / 4, 15u);
  EXPECT_EQ(kdd.old_pages(), 40u);
  EXPECT_GT(kdd.dez_pages(), 0u);
}

TEST(KddCounter, ReadHitOnOldPageChargesDeltaRead) {
  PolicyConfig cfg = small_config();
  cfg.staging_buffer_bytes = kPageSize;
  cfg.delta_ratio_mean = 0.50;
  KddCache kdd(cfg, small_geo());
  kdd.read(5, {}, nullptr);
  kdd.write(5, {}, nullptr);
  const std::uint64_t reads_before = kdd.stats().ssd_reads;
  kdd.read(5, {}, nullptr);  // staged delta: DAZ read only
  const std::uint64_t staged_cost = kdd.stats().ssd_reads - reads_before;
  EXPECT_EQ(staged_cost, 1u);
  // Force the delta into a DEZ page; now a hit costs DAZ + DEZ reads.
  for (Lba lba = 10; lba < 20; ++lba) {
    kdd.read(lba, {}, nullptr);
    kdd.write(lba, {}, nullptr);
  }
  if (kdd.staged_deltas() == 0 || kdd.dez_pages() > 0) {
    const std::uint64_t before = kdd.stats().ssd_reads;
    kdd.read(5, {}, nullptr);
    EXPECT_GE(kdd.stats().ssd_reads - before, 1u);
  }
}

TEST(KddCounter, CleaningBoundsDirtyPages) {
  PolicyConfig cfg = small_config();
  cfg.ssd_pages = 512;
  cfg.clean_high_watermark = 0.20;
  cfg.clean_low_watermark = 0.10;
  KddCache kdd(cfg, small_geo());
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    const Lba lba = rng.next_below(600);
    if (rng.next_bool(0.7)) {
      kdd.write(lba, {}, nullptr);
    } else {
      kdd.read(lba, {}, nullptr);
    }
    const auto dirty = kdd.old_pages() + kdd.dez_pages();
    ASSERT_LE(dirty, static_cast<std::uint64_t>(
                         0.20 * static_cast<double>(kdd.sets().pages())) +
                         kdd.sets().ways())
        << "iteration " << i;
  }
  EXPECT_GT(kdd.stats().cleanings, 0u);
  EXPECT_GT(kdd.stats().groups_cleaned, 0u);
}

TEST(KddCounter, FlushLeavesNoPendingState) {
  KddCache kdd(small_config(), small_geo());
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) {
    const Lba lba = rng.next_below(400);
    if (rng.next_bool(0.6)) {
      kdd.write(lba, {}, nullptr);
    } else {
      kdd.read(lba, {}, nullptr);
    }
  }
  kdd.flush(nullptr);
  EXPECT_EQ(kdd.old_pages(), 0u);
  EXPECT_EQ(kdd.dez_pages(), 0u);
  EXPECT_EQ(kdd.staged_deltas(), 0u);
  EXPECT_EQ(kdd.stale_groups(), 0u);
}

TEST(KddCounter, MetadataTrafficIsSmallFraction) {
  PolicyConfig cfg = small_config();
  cfg.ssd_pages = 2048;
  KddCache kdd(cfg, small_geo());
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) {
    const Lba lba = rng.next_below(3000);
    if (rng.next_bool(0.5)) {
      kdd.write(lba % small_geo().data_pages(), {}, nullptr);
    } else {
      kdd.read(lba % small_geo().data_pages(), {}, nullptr);
    }
  }
  kdd.flush(nullptr);
  const CacheStats s = kdd.stats();
  const double fraction = static_cast<double>(s.metadata_ssd_writes()) /
                          static_cast<double>(s.total_ssd_writes());
  EXPECT_LT(fraction, 0.05);  // paper reports < 2 % at the default partition
  EXPECT_GT(s.metadata_ssd_writes(), 0u);
}

TEST(KddCounter, HigherContentLocalityWritesLess) {
  const RaidGeometry geo = paper_geometry(8191);
  ZipfWorkloadConfig wcfg;
  wcfg.working_set_pages = 4096;
  wcfg.total_requests = 40000;
  wcfg.read_rate = 0.2;
  std::uint64_t prev = ~0ull;
  for (const double mean : {0.50, 0.25, 0.12}) {
    PolicyConfig cfg;
    cfg.ssd_pages = 2048;
    cfg.delta_ratio_mean = mean;
    KddCache kdd(cfg, geo);
    const Trace trace = generate_zipf_trace(wcfg);
    const CacheStats s = run_counter_trace(kdd, trace, geo.data_pages());
    EXPECT_LT(s.total_ssd_writes(), prev) << "mean " << mean;
    prev = s.total_ssd_writes();
  }
}

TEST(KddCounter, StalenessExposureIsRecorded) {
  PolicyConfig cfg = small_config();
  cfg.ssd_pages = 512;
  cfg.clean_high_watermark = 0.15;  // frequent repairs
  cfg.clean_low_watermark = 0.05;
  KddCache kdd(cfg, small_geo());
  Rng rng(9);
  for (int i = 0; i < 8000; ++i) {
    const Lba lba = rng.next_below(500);
    if (rng.next_bool(0.7)) {
      kdd.write(lba, {}, nullptr);
    } else {
      kdd.read(lba, {}, nullptr);
    }
  }
  kdd.flush(nullptr);
  const LatencyHistogram& exposure = kdd.staleness_exposure();
  EXPECT_GT(exposure.count(), 0u);           // groups got stale and repaired
  EXPECT_GT(exposure.mean_us(), 0.0);        // ...after a nonzero interval
  // Tighter cleaning watermarks must shrink the exposure window.
  PolicyConfig lazy = cfg;
  lazy.clean_high_watermark = 0.60;
  lazy.clean_low_watermark = 0.30;
  KddCache kdd_lazy(lazy, small_geo());
  Rng rng2(9);
  for (int i = 0; i < 8000; ++i) {
    const Lba lba = rng2.next_below(500);
    if (rng2.next_bool(0.7)) {
      kdd_lazy.write(lba, {}, nullptr);
    } else {
      kdd_lazy.read(lba, {}, nullptr);
    }
  }
  kdd_lazy.flush(nullptr);
  EXPECT_LT(exposure.mean_us(), kdd_lazy.staleness_exposure().mean_us());
}

// ---------------------------------------------------------------------------
// Prototype-mode end-to-end correctness with realistic content locality
// ---------------------------------------------------------------------------

class KddRealContentTest : public ::testing::TestWithParam<double> {};

TEST_P(KddRealContentTest, ReadYourWritesWithContentLocality) {
  const double ratio = GetParam();
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdModel ssd(small_ssd());
  KddCache kdd(small_config(), &array, &ssd);

  const ContentGenerator gen(9);
  ReferenceModel model;
  Rng rng(10);
  Page buf = make_page();
  for (int i = 0; i < 4000; ++i) {
    const Lba lba = rng.next_below(512);
    if (rng.next_bool(0.5)) {
      // New version: mutate the current contents with the target locality.
      const Page base = model.contains(lba) ? model.read(lba) : gen.base_page(lba);
      const Page data = model.contains(lba) ? gen.mutate(base, ratio, rng) : base;
      ASSERT_EQ(kdd.write(lba, data, nullptr), IoStatus::kOk);
      model.write(lba, data);
    } else {
      ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
      ASSERT_EQ(buf, model.read(lba)) << "lba " << lba << " iter " << i;
    }
  }
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
  for (const auto& [lba, page] : model.pages()) {
    ASSERT_EQ(array.read_page(lba, buf), IoStatus::kOk);
    ASSERT_EQ(buf, page) << "lba " << lba;
  }
}

INSTANTIATE_TEST_SUITE_P(Localities, KddRealContentTest,
                         ::testing::Values(0.12, 0.25, 0.50, 1.0));

// Geometry sweep: associativity and chunk size must not affect correctness.
class KddGeometryTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(KddGeometryTest, ReadYourWritesAcrossGeometries) {
  const auto [ways, chunk_pages] = GetParam();
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = chunk_pages;
  geo.disk_pages = 64 * chunk_pages;
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  PolicyConfig cfg;
  cfg.ssd_pages = 256;
  cfg.ways = ways;
  KddCache kdd(cfg, &array, &ssd);
  const ContentGenerator gen(55);
  ReferenceModel model;
  Rng rng(56);
  Page buf = make_page();
  for (int i = 0; i < 1500; ++i) {
    const Lba lba = rng.next_below(std::min<std::uint64_t>(400, geo.data_pages()));
    if (rng.next_bool(0.55)) {
      const Page base = model.contains(lba) ? model.read(lba) : gen.base_page(lba);
      const Page data = model.contains(lba) ? gen.mutate(base, 0.25, rng) : base;
      ASSERT_EQ(kdd.write(lba, data, nullptr), IoStatus::kOk);
      model.write(lba, data);
    } else {
      ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
      ASSERT_EQ(buf, model.read(lba));
    }
  }
  kdd.check_invariants();
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, KddGeometryTest,
    ::testing::Combine(::testing::Values(4u, 8u, 32u),   // associativity
                       ::testing::Values(1u, 4u, 16u)),  // chunk pages
    [](const auto& param_info) {
      return "ways" + std::to_string(std::get<0>(param_info.param)) + "_chunk" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(KddReal, IncompressibleContentTakesFallbacksButStaysCorrect) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdModel ssd(small_ssd());
  KddCache kdd(small_config(), &array, &ssd);
  ReferenceModel model;
  Rng rng(11);
  Page buf = make_page();
  for (int i = 0; i < 1500; ++i) {
    const Lba lba = rng.next_below(128);
    // Fully random contents: deltas never compress.
    const Page data = test_page(lba, static_cast<std::uint64_t>(i));
    ASSERT_EQ(kdd.write(lba, data, nullptr), IoStatus::kOk);
    model.write(lba, data);
    if (i % 7 == 0) {
      ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
      ASSERT_EQ(buf, model.read(lba));
    }
  }
  EXPECT_GT(kdd.delta_fallbacks(), 0u);
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

// ---------------------------------------------------------------------------
// Write misses reconstruct-written from cached row-mates
// ---------------------------------------------------------------------------

/// The cache slot holding `lba` as a clean or old page; kNone when uncached.
std::uint32_t slot_of(const KddCache& kdd, Lba lba) {
  const CacheSets& sets = kdd.sets();
  for (std::uint32_t i = 0; i < sets.pages(); ++i) {
    const CacheSets::CacheSlot& s = sets.slot(i);
    if (s.lba == lba && (s.state == PageState::kClean || s.state == PageState::kOld)) {
      return i;
    }
  }
  return CacheSets::kNone;
}

/// `page` with `bytes` bytes at a seed-chosen offset replaced: a delta that
/// compresses to about `bytes`.
Page changed(const Page& page, std::uint64_t seed, std::size_t bytes = 64) {
  Page out = page;
  Rng rng(seed);
  const std::size_t at = rng.next_below(kPageSize - bytes);
  for (std::size_t b = 0; b < bytes; ++b) {
    out[at + b] = static_cast<std::uint8_t>(rng.next_u64());
  }
  return out;
}

/// A prototype stack whose group `g` holds version 0 of every data member
/// on the array and nothing in the cache.
struct RowMateRig {
  explicit RowMateRig(GroupId group) : array(small_geo()), ssd(small_ssd()), g(group) {
    kdd = std::make_unique<KddCache>(small_config(PolicyConfig::paper()), &array, &ssd);
    for (std::uint32_t k = 0; k < small_geo().data_disks(); ++k) {
      const Lba lba = member(k);
      EXPECT_EQ(array.write_page(lba, test_page(lba)), IoStatus::kOk);
      model.write(lba, test_page(lba));
    }
  }

  Lba member(std::uint32_t k) const { return array.layout().group_member(g, k); }

  void read(Lba lba) {
    Page buf = make_page();
    ASSERT_EQ(kdd->read(lba, buf, nullptr), IoStatus::kOk);
    ASSERT_EQ(buf, model.read(lba));
  }

  void write(Lba lba, const Page& data) {
    ASSERT_EQ(kdd->write(lba, data, nullptr), IoStatus::kOk);
    model.write(lba, data);
  }

  /// Flushes, then the scrub must be clean and every page read back.
  void flush_and_verify() {
    kdd->check_invariants();
    kdd->flush(nullptr);
    EXPECT_TRUE(array.scrub().empty());
    for (const auto& [lba, page] : model.pages()) read(lba);
  }

  RaidArray array;
  SsdModel ssd;
  GroupId g;
  std::unique_ptr<KddCache> kdd;
  ReferenceModel model;
};

TEST(KddReal, WriteMissReconstructsFromCachedRowMates) {
  // Row-mate 1 is clean, row-mate 2 old with its delta staged in NVRAM,
  // row-mate 3 old with its delta in a DEZ page. The write miss on member 0
  // reads all three DAZ pages instead of any disk page. The old ones supply
  // their DAZ bases — the versions the group's stale parity reflects — so
  // the new parity leaves both deltas pending and exact.
  RowMateRig rig(10);
  for (std::uint32_t k = 1; k <= 3; ++k) rig.read(rig.member(k));
  const Lba staged = rig.member(2);
  const Lba in_dez = rig.member(3);
  rig.write(in_dez, changed(rig.model.read(in_dez), 1));
  // Write hits elsewhere until the staging buffer commits into a DEZ page.
  for (Lba lba = 512; rig.kdd->dez_pages() == 0 && lba < 1024; lba += 8) {
    ASSERT_NE(rig.array.layout().group_of(lba), rig.g);
    rig.model.write(lba, test_page(lba));
    ASSERT_EQ(rig.array.write_page(lba, test_page(lba)), IoStatus::kOk);
    rig.read(lba);
    rig.write(lba, changed(test_page(lba), lba, 512));
  }
  rig.write(staged, changed(rig.model.read(staged), 2));

  const CacheSets& sets = rig.kdd->sets();
  ASSERT_EQ(sets.slot(slot_of(*rig.kdd, rig.member(1))).state, PageState::kClean);
  ASSERT_EQ(sets.slot(slot_of(*rig.kdd, staged)).dez_idx, CacheSets::kStaged);
  const std::uint32_t dez_slot = slot_of(*rig.kdd, in_dez);
  ASSERT_EQ(sets.slot(dez_slot).state, PageState::kOld);
  ASSERT_NE(sets.slot(dez_slot).dez_idx, CacheSets::kStaged);
  ASSERT_TRUE(rig.array.group_stale(rig.g));

  const Lba target = rig.member(0);
  const Page data = changed(rig.model.read(target), 3);
  const std::uint64_t reads = rig.array.total_disk_reads();
  rig.write(target, data);
  EXPECT_EQ(rig.array.total_disk_reads(), reads);
  EXPECT_EQ(rig.kdd->write_miss_rcw(), 1u);
  EXPECT_EQ(rig.kdd->write_miss_rmw(), 0u);
  EXPECT_TRUE(rig.array.group_stale(rig.g));
  EXPECT_GE(rig.kdd->old_pages(), 2u);

  // Parity reflects the new data and every row-mate's version 0.
  Page expected = data;
  for (std::uint32_t k = 1; k <= 3; ++k) xor_into(expected, test_page(rig.member(k)));
  const DiskAddr pa = rig.array.layout().parity_addr(rig.g);
  const auto parity = rig.array.disk(pa.disk).raw_page(pa.page);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), parity.begin()));

  rig.flush_and_verify();
}

TEST(KddReal, UnreadableRowMateSendsTheWriteMissDownRmw) {
  RowMateRig rig(12);
  for (std::uint32_t k = 1; k <= 3; ++k) rig.read(rig.member(k));
  const std::uint32_t rotten = slot_of(*rig.kdd, rig.member(2));
  ASSERT_NE(rotten, CacheSets::kNone);
  CacheSsd& cache = rig.kdd->cache_ssd();
  cache.faults()->inject_media_error(cache.metadata_pages() + rotten);

  const Lba target = rig.member(0);
  const std::uint64_t reads = rig.array.total_disk_reads();
  rig.write(target, changed(rig.model.read(target), 4));
  EXPECT_EQ(rig.array.total_disk_reads() - reads, 2u);  // old data + parity
  EXPECT_EQ(rig.kdd->write_miss_rcw(), 0u);
  EXPECT_EQ(rig.kdd->write_miss_rmw(), 1u);
  EXPECT_EQ(rig.kdd->media_fallbacks(), 1u);
  rig.flush_and_verify();
}

TEST(KddReal, HealCountsTheMemberReadsItIssues) {
  // An old page whose DAZ base rots: the read hit heals the group, which
  // reads every data member from disk to recompute parity. The cache's disk
  // read counter must see those reads, not just the page read after them.
  RowMateRig rig(14);
  const Lba lba = rig.member(1);
  rig.read(lba);
  rig.write(lba, changed(rig.model.read(lba), 5));
  const std::uint32_t rotten = slot_of(*rig.kdd, lba);
  CacheSsd& cache = rig.kdd->cache_ssd();
  cache.faults()->inject_media_error(cache.metadata_pages() + rotten);

  const std::uint64_t counted = rig.kdd->stats().disk_reads;
  const std::uint64_t issued = rig.array.total_disk_reads();
  rig.read(lba);
  EXPECT_EQ(rig.kdd->groups_healed(), 1u);
  EXPECT_EQ(rig.array.total_disk_reads() - issued, 5u);  // 4 members + the page
  EXPECT_EQ(rig.kdd->stats().disk_reads - counted,
            rig.array.total_disk_reads() - issued);
  rig.flush_and_verify();
}

TEST(KddReal, RangeBarrierReconstructsAFullyCachedGroup) {
  // Every data member of the group is cached and two are old: the rebuild
  // stripe barrier recomputes parity from the cached images through the
  // destage pipeline, reading no disk page, and leaves the group clean.
  RowMateRig rig(16);
  for (std::uint32_t k = 0; k < small_geo().data_disks(); ++k) rig.read(rig.member(k));
  for (std::uint32_t k = 1; k <= 2; ++k) {
    rig.write(rig.member(k), changed(rig.model.read(rig.member(k)), 6 + k));
  }
  ASSERT_EQ(rig.kdd->old_pages(), 2u);
  ASSERT_TRUE(rig.array.group_stale(rig.g));

  const std::uint64_t reads = rig.array.total_disk_reads();
  EXPECT_TRUE(rig.kdd->destage_range(rig.g, rig.g + 1, nullptr));
  EXPECT_EQ(rig.array.total_disk_reads(), reads);
  EXPECT_FALSE(rig.array.group_stale(rig.g));
  EXPECT_EQ(rig.kdd->old_pages(), 0u);
  EXPECT_TRUE(rig.array.scrub().empty());
  rig.flush_and_verify();
}

TEST(KddReal, ReclaimAsCleanKeepsPagesCached) {
  // Default residency: a page read while old survives destage as clean
  // (scheme 1), and its next read hits.
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdModel ssd(small_ssd());
  KddCache kdd(small_config(), &array, &ssd);
  const ContentGenerator gen(12);
  Rng rng(13);

  const Lba lba = 9;
  Page cur = gen.base_page(lba);
  ASSERT_EQ(kdd.write(lba, cur, nullptr), IoStatus::kOk);  // ghost only
  ASSERT_EQ(kdd.write(lba, cur, nullptr), IoStatus::kOk);  // second miss admits
  cur = gen.mutate(cur, 0.2, rng);
  ASSERT_EQ(kdd.write(lba, cur, nullptr), IoStatus::kOk);
  EXPECT_EQ(kdd.old_pages(), 1u);
  Page buf = make_page();
  ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);  // re-referenced
  EXPECT_EQ(buf, cur);
  kdd.flush(nullptr);
  EXPECT_EQ(kdd.old_pages(), 0u);
  EXPECT_EQ(kdd.reclaim_kept(), 1u);
  EXPECT_EQ(kdd.reclaim_dropped(), 0u);
  const std::uint64_t hits_before = kdd.stats().read_hits;
  ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
  EXPECT_EQ(buf, cur);
  EXPECT_EQ(kdd.stats().read_hits, hits_before + 1);
  EXPECT_TRUE(array.scrub().empty());
  kdd.check_invariants();
}

// ---------------------------------------------------------------------------
// Residency (PolicyConfig::residency)
// ---------------------------------------------------------------------------

TEST(KddResidency, UnreferencedPageIsDroppedAndItsFirstReMissReadmits) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdModel ssd(small_ssd());
  KddCache kdd(small_config(), &array, &ssd);
  const Lba lba = 9;
  const Page v0 = test_page(lba);
  const Page v1 = changed(v0, 1);
  ASSERT_EQ(kdd.write(lba, v0, nullptr), IoStatus::kOk);
  ASSERT_EQ(kdd.write(lba, v0, nullptr), IoStatus::kOk);
  ASSERT_EQ(kdd.write(lba, v1, nullptr), IoStatus::kOk);  // clean -> old
  ASSERT_EQ(kdd.old_pages(), 1u);
  kdd.flush(nullptr);
  EXPECT_EQ(kdd.reclaim_kept(), 0u);
  EXPECT_EQ(kdd.reclaim_dropped(), 1u);
  EXPECT_EQ(slot_of(kdd, lba), CacheSets::kNone);
  EXPECT_TRUE(array.scrub().empty());

  // The drop left the address in the ghost window: the first re-miss
  // admits without a deferral, and the read after it hits.
  const std::uint64_t deferred = kdd.admissions_deferred();
  const CacheStats before = kdd.stats();
  Page buf = make_page();
  ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
  EXPECT_EQ(buf, v1);
  EXPECT_EQ(kdd.stats().read_misses, before.read_misses + 1);
  EXPECT_EQ(kdd.admissions_deferred(), deferred);
  EXPECT_NE(slot_of(kdd, lba), CacheSets::kNone);
  ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
  EXPECT_EQ(buf, v1);
  EXPECT_EQ(kdd.stats().read_hits, before.read_hits + 1);
  kdd.check_invariants();
}

TEST(KddResidency, OneTouchScanIsNotAdmitted) {
  // One pass of reads and one of writes over disjoint pages, each touched
  // once. The default defers every miss and writes no data page to the
  // cache SSD; the paper profile admits every one.
  for (const bool paper : {false, true}) {
    RaidArray array(small_geo());
    SsdModel ssd(small_ssd());
    KddCache kdd(paper ? small_config(PolicyConfig::paper()) : small_config(),
                 &array, &ssd);
    Page buf = make_page();
    for (Lba lba = 0; lba < 64; ++lba) {
      ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
    }
    for (Lba lba = 64; lba < 128; ++lba) {
      ASSERT_EQ(kdd.write(lba, test_page(lba), nullptr), IoStatus::kOk);
    }
    const CacheStats s = kdd.stats();
    const std::uint64_t admitted = paper ? 64u : 0u;
    EXPECT_EQ(kdd.admissions_deferred(), paper ? 0u : 128u);
    EXPECT_EQ(s.ssd_writes[static_cast<int>(SsdWriteKind::kReadFill)], admitted);
    EXPECT_EQ(s.ssd_writes[static_cast<int>(SsdWriteKind::kWriteAlloc)], admitted);
    EXPECT_TRUE(array.scrub().empty());
  }
}

// ---------------------------------------------------------------------------
// Failure handling (Section III-E)
// ---------------------------------------------------------------------------

struct CrashRig {
  explicit CrashRig(const PolicyConfig& config = small_config(),
                    std::size_t metadata_entries = 255)
      : array(small_geo()),
        ssd(small_ssd()),
        nvram(kPageSize, metadata_entries),
        kdd(std::make_unique<KddCache>(config, &array, &ssd, &nvram)) {}

  void run_workload(int iters, double locality, std::uint64_t seed) {
    const ContentGenerator gen(21);
    Rng rng(seed);
    for (int i = 0; i < iters; ++i) {
      const Lba lba = rng.next_below(300);
      if (rng.next_bool(0.55)) {
        const Page base = model.contains(lba) ? model.read(lba) : gen.base_page(lba);
        const Page data =
            model.contains(lba) ? gen.mutate(base, locality, rng) : base;
        ASSERT_EQ(kdd->write(lba, data, nullptr), IoStatus::kOk);
        model.write(lba, data);
      } else {
        Page buf = make_page();
        ASSERT_EQ(kdd->read(lba, buf, nullptr), IoStatus::kOk);
        ASSERT_EQ(buf, model.read(lba));
      }
    }
  }

  void verify_reads() {
    Page buf = make_page();
    for (const auto& [lba, page] : model.pages()) {
      ASSERT_EQ(kdd->read(lba, buf, nullptr), IoStatus::kOk);
      ASSERT_EQ(buf, page) << "lba " << lba;
    }
  }

  RaidArray array;
  SsdModel ssd;
  NvramState nvram;
  std::unique_ptr<KddCache> kdd;
  ReferenceModel model;
};

TEST(KddFailure, PowerFailureRecoveryRestoresCacheState) {
  CrashRig rig;
  rig.run_workload(3000, 0.25, 31);
  const std::uint64_t old_before = rig.kdd->old_pages();
  const std::uint64_t stale_before = rig.kdd->stale_groups();
  EXPECT_GT(stale_before, 0u);  // crash with deferred parity pending

  // Power failure: DRAM state (the primary map) is lost; the SSD, the disks
  // and NVRAM survive. Rebuild from the metadata log + NVRAM buffers.
  rig.kdd = std::make_unique<KddCache>(small_config(), &rig.array, &rig.ssd,
                                       &rig.nvram, /*recover=*/true);
  EXPECT_EQ(rig.kdd->old_pages(), old_before);
  EXPECT_EQ(rig.kdd->stale_groups(), stale_before);
  rig.verify_reads();
  // Recovery must leave enough state to finish the deferred parity updates.
  rig.kdd->flush(nullptr);
  EXPECT_TRUE(rig.array.scrub().empty());
  rig.verify_reads();
}

TEST(KddFailure, PowerFailureThenMoreWritesStaysConsistent) {
  CrashRig rig;
  rig.run_workload(1500, 0.25, 32);
  rig.kdd = std::make_unique<KddCache>(small_config(), &rig.array, &rig.ssd,
                                       &rig.nvram, /*recover=*/true);
  rig.run_workload(1500, 0.25, 33);
  rig.kdd->flush(nullptr);
  EXPECT_TRUE(rig.array.scrub().empty());
  rig.verify_reads();
}

TEST(KddFailure, FailedMetadataLogWriteKeepsItsEntriesInNvram) {
  // A metadata-log page write that does not reach the media must leave its
  // entries in NVRAM and the log tail in place. Otherwise replay skips the
  // page and recovery resurrects the older mappings it superseded, for
  // groups whose parity the destage has already brought up to date.
  PolicyConfig cfg = small_config();
  cfg.metadata_fraction = 0.1;  // room for 16-entry log pages
  cfg.metadata_buffer_entries = 16;
  CrashRig rig(cfg, cfg.metadata_buffer_entries);
  rig.run_workload(600, 0.25, 41);
  ASSERT_GT(rig.kdd->stale_groups(), 0u);
  const std::uint64_t tail = rig.nvram.log_tail;

  // The cache SSD loses power, the array does not: the flush destages every
  // dirty group, and none of the log pages recording that lands.
  FaultInjectingDevice* faults = rig.kdd->cache_ssd().faults();
  const std::uint64_t failed = rig.kdd->metadata_log().failed_page_writes();
  faults->rail()->cut();
  rig.kdd->flush(nullptr);
  EXPECT_EQ(rig.nvram.log_tail, tail);
  EXPECT_FALSE(rig.nvram.metadata.empty());
  // The buffer overflows its 16 entries, but a full buffer retries only
  // after another log page's worth of entries: fewer than that arrived, so
  // the flush made at most the first failed attempt, no retry, and its own
  // final one.
  ASSERT_LT(rig.nvram.metadata.size(), MetadataLog::kEntriesPerPage);
  EXPECT_GT(rig.nvram.metadata.size(), cfg.metadata_buffer_entries);
  EXPECT_LE(rig.kdd->metadata_log().failed_page_writes() - failed, 2u);

  faults->power_restore();
  rig.kdd = std::make_unique<KddCache>(cfg, &rig.array, &rig.ssd, &rig.nvram,
                                       /*recover=*/true);
  rig.kdd->check_invariants();
  rig.verify_reads();
  rig.kdd->flush(nullptr);
  EXPECT_TRUE(rig.array.scrub().empty());
  rig.kdd->check_invariants();
  rig.verify_reads();
}

TEST(KddFailure, SsdFailureResyncsArrayWithNoDataLoss) {
  CrashRig rig;
  rig.run_workload(2000, 0.25, 34);
  EXPECT_GT(rig.kdd->stale_groups(), 0u);
  const std::uint64_t resynced = rig.kdd->handle_ssd_failure();
  EXPECT_GT(resynced, 0u);
  EXPECT_TRUE(rig.array.scrub().empty());  // RPO = 0: array fully consistent
  rig.verify_reads();                      // cache is cold but data is intact
}

TEST(KddFailure, HddFailureFlushesParityBeforeRebuild) {
  CrashRig rig;
  rig.run_workload(2000, 0.25, 35);
  EXPECT_GT(rig.kdd->stale_groups(), 0u);
  // KDD's protocol: parity_update everything, then rebuild. Zero groups may
  // be rebuilt from stale parity.
  EXPECT_EQ(rig.kdd->handle_disk_failure(2), 0u);
  EXPECT_TRUE(rig.array.scrub().empty());
  rig.verify_reads();
}

TEST(KddFailure, EveryDiskPositionIsRebuildable) {
  for (std::uint32_t disk = 0; disk < 5; ++disk) {
    CrashRig rig;
    rig.run_workload(800, 0.25, 36 + disk);
    EXPECT_EQ(rig.kdd->handle_disk_failure(disk), 0u) << "disk " << disk;
    rig.verify_reads();
  }
}

TEST(KddFailure, MixedGenerationAuditHealsGroupsThatStayDirty) {
  // Group g has two old pages: m0's delta sits in a DEZ page, m1's is staged
  // in NVRAM. A stale-generation mapping of another page into m0's extent,
  // injected here as a cut can leave one behind, makes the page's census
  // self-inconsistent, so recovery drops every mapping into it, m0's too.
  // g stays dirty through m1; destaging m1's delta alone would leave m0's
  // update out of parity.
  CrashRig rig(small_config(PolicyConfig::paper()));
  const RaidLayout& layout = rig.array.layout();
  const GroupId g = 7;
  const Lba m0 = layout.group_member(g, 0);
  const Lba m1 = layout.group_member(g, 1);
  for (const Lba lba : {m0, m1}) {
    rig.model.write(lba, test_page(lba));
    ASSERT_EQ(rig.kdd->write(lba, test_page(lba), nullptr), IoStatus::kOk);
  }
  // Deltas of about 3000 bytes: staging m1's commits m0's to a DEZ page.
  for (const Lba lba : {m0, m1}) {
    const Page data = changed(rig.model.read(lba), lba, 3000);
    ASSERT_EQ(rig.kdd->write(lba, data, nullptr), IoStatus::kOk);
    rig.model.write(lba, data);
  }
  const CacheSets& sets = rig.kdd->sets();
  const CacheSets::CacheSlot a = sets.slot(slot_of(*rig.kdd, m0));
  ASSERT_EQ(a.state, PageState::kOld);
  ASSERT_NE(a.dez_idx, CacheSets::kStaged);
  ASSERT_EQ(sets.slot(slot_of(*rig.kdd, m1)).dez_idx, CacheSets::kStaged);

  std::uint32_t free_slot = 0;
  while (sets.slot(free_slot).state != PageState::kFree) ++free_slot;
  MetadataEntry stale;
  stale.daz_idx = free_slot;
  stale.lba_raid = layout.group_member(g + 1, 0);
  stale.state = PageState::kOld;
  stale.dez_idx = a.dez_idx;
  stale.dez_off = a.dez_off;
  stale.dez_len = a.dez_len;
  rig.nvram.metadata.put(stale);

  rig.kdd = std::make_unique<KddCache>(small_config(PolicyConfig::paper()), &rig.array, &rig.ssd,
                                       &rig.nvram, /*recover=*/true);
  rig.kdd->check_invariants();
  rig.verify_reads();
  rig.kdd->flush(nullptr);
  EXPECT_TRUE(rig.array.scrub().empty());
  rig.kdd->check_invariants();
  rig.verify_reads();
}

TEST(KddFailure, TornReclaimRewriteIsHealedByTheRecoveryAudit) {
  // Default residency: destage rewrites a re-referenced old page in place as
  // clean. The power cut tears that rewrite, the first cache-SSD write of
  // the flush, after the destage brought the group's parity up to date.
  CrashRig rig;
  const Lba lba = 9;
  const Page v0 = test_page(lba);
  // The update lands in the last sector, which a torn write never persists:
  // the torn page is neither version.
  Page v1 = v0;
  for (std::size_t b = kPageSize - 64; b < kPageSize; ++b) v1[b] ^= 0x5a;
  rig.model.write(lba, v1);
  ASSERT_EQ(rig.kdd->write(lba, v0, nullptr), IoStatus::kOk);
  ASSERT_EQ(rig.kdd->write(lba, v0, nullptr), IoStatus::kOk);
  ASSERT_EQ(rig.kdd->write(lba, v1, nullptr), IoStatus::kOk);
  Page buf = make_page();
  ASSERT_EQ(rig.kdd->read(lba, buf, nullptr), IoStatus::kOk);  // re-referenced
  const std::uint32_t slot = slot_of(*rig.kdd, lba);
  ASSERT_NE(slot, CacheSets::kNone);
  ASSERT_EQ(rig.kdd->sets().slot(slot).dez_idx, CacheSets::kStaged);
  ASSERT_EQ(rig.kdd->stale_groups(), 1u);

  // NVRAM as it stands when the rewrite tears: the page's only log entry
  // names it clean, and the reclaim already erased its staged delta.
  NvramState at_tear = rig.nvram;
  at_tear.staging.erase(lba);

  FaultInjectingDevice* faults = rig.kdd->cache_ssd().faults();
  faults->arm_power_cut(0);
  rig.kdd->flush(nullptr);
  EXPECT_EQ(faults->last_torn_page(),
            rig.kdd->cache_ssd().metadata_pages() + slot);
  EXPECT_EQ(rig.kdd->stale_groups(), 0u);

  // The host dies at the tear: nothing it did afterwards reached NVRAM.
  faults->power_restore();
  rig.nvram = at_tear;
  rig.kdd = std::make_unique<KddCache>(small_config(), &rig.array, &rig.ssd,
                                       &rig.nvram, /*recover=*/true);
  EXPECT_EQ(rig.kdd->media_fallbacks(), 1u);  // the torn clean page, retired
  EXPECT_EQ(slot_of(*rig.kdd, lba), CacheSets::kNone);
  rig.kdd->check_invariants();
  rig.verify_reads();
  rig.kdd->flush(nullptr);
  EXPECT_TRUE(rig.array.scrub().empty());
  rig.verify_reads();
}

// ---------------------------------------------------------------------------
// Degraded service through the cache (ISSUE 6): a lost member's newest
// version can live only in the cache (DAZ base + delta) while the array's
// parity is still stale — the cache must serve it without ever consulting
// (or trusting) the degraded array.
// ---------------------------------------------------------------------------

/// Crawl-speed engine: the group under test stays un-rebuilt (member down)
/// for as long as the test needs it to be.
OnlineRebuildConfig crawl_rebuild() {
  OnlineRebuildConfig cfg;
  cfg.chunk_groups = 1;
  cfg.min_chunk_groups = 1;
  cfg.ops_between_steps = 1024;
  return cfg;
}

TEST(KddDegraded, ReadOfLostPageServedFromCachedDelta) {
  RaidArray array(small_geo());
  SsdModel ssd(small_ssd());
  NvramState nvram(kPageSize, 255);
  RebuildEngine engine(&array, crawl_rebuild());
  KddCache kdd(small_config(), &array, &ssd, &nvram);
  kdd.bind_rebuild_engine(&engine);

  // A page well past the initial cursor, written twice: the second write is a
  // deferred-parity hit, so the member disk holds v2 but parity still covers
  // v1 — the newest version is only reachable as DAZ base + cached delta.
  const GroupId g = 40;
  const Lba lba = array.layout().group_member(g, 0);
  const std::uint32_t disk = array.layout().map(lba).disk;
  const ContentGenerator gen(51);
  Rng rng(52);
  const Page v1 = gen.base_page(lba);
  ASSERT_EQ(kdd.write(lba, v1, nullptr), IoStatus::kOk);
  Page buf = make_page();
  ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
  const Page v2 = gen.mutate(v1, 0.25, rng);
  ASSERT_EQ(kdd.write(lba, v2, nullptr), IoStatus::kOk);
  ASSERT_EQ(kdd.old_pages(), 1u);
  ASSERT_GE(kdd.stale_groups(), 1u);

  // The member fails online. No stop-the-world flush: the delta stays staged
  // and the group is still dirty when the degraded read arrives.
  ASSERT_TRUE(kdd.handle_disk_failure_online(disk));
  ASSERT_TRUE(array.member_down(disk, g));
  const std::uint64_t raid_reads_before = array.total_disk_reads();
  ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
  EXPECT_EQ(buf, v2);
  EXPECT_EQ(kdd.degraded_cache_hits(), 1u);
  // Cache-resident service: the degraded read never touched the array.
  EXPECT_EQ(array.total_disk_reads(), raid_reads_before);

  // Finish the rebuild; the barrier folds the delta first, so no group is
  // ever reconstructed from stale parity, and the data survives end to end.
  int guard = 0;
  while (engine.rebuild_active()) {
    ASSERT_LT(++guard, 10000);
    kdd.on_idle(nullptr);
  }
  EXPECT_EQ(array.rebuild_stale_folds(), 0u);
  ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
  EXPECT_EQ(buf, v2);
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(KddDegraded, MissOnLostPageFoldsPeerDeltaThenReconstructs) {
  RaidArray array(small_geo());
  SsdModel ssd(small_ssd());
  NvramState nvram(kPageSize, 255);
  RebuildEngine engine(&array, crawl_rebuild());
  KddCache kdd(small_config(), &array, &ssd, &nvram);
  kdd.bind_rebuild_engine(&engine);

  // Cold victim page, written straight to the array; a PEER in the same
  // stripe then takes a deferred-parity write, leaving the group stale.
  const GroupId g = 40;
  const Lba victim = array.layout().group_member(g, 0);
  const Lba peer = array.layout().group_member(g, 1);
  const Page vdata = test_page(victim, 7);
  ASSERT_EQ(array.write_page(victim, vdata), IoStatus::kOk);
  const ContentGenerator gen(53);
  Rng rng(54);
  const Page p1 = gen.base_page(peer);
  ASSERT_EQ(kdd.write(peer, p1, nullptr), IoStatus::kOk);
  Page buf = make_page();
  ASSERT_EQ(kdd.read(peer, buf, nullptr), IoStatus::kOk);
  const Page p2 = gen.mutate(p1, 0.25, rng);
  ASSERT_EQ(kdd.write(peer, p2, nullptr), IoStatus::kOk);
  ASSERT_EQ(kdd.old_pages(), 1u);
  ASSERT_TRUE(array.group_stale(g));

  // Lose the victim's disk. A read of the victim is a cache miss in a stale
  // group: the array must refuse to reconstruct from stale parity (it would
  // fabricate the pre-delta peer into the result); the cache folds the
  // group's deltas and retries — and the retry must yield the real data.
  const std::uint32_t disk = array.layout().map(victim).disk;
  ASSERT_TRUE(kdd.handle_disk_failure_online(disk));
  ASSERT_TRUE(array.member_down(disk, g));
  ASSERT_EQ(kdd.read(victim, buf, nullptr), IoStatus::kOk);
  EXPECT_EQ(buf, vdata);
  EXPECT_EQ(kdd.degraded_delta_folds(), 1u);
  EXPECT_FALSE(array.group_stale(g));

  // The peer's newest version survived the fold, and the rebuilt array is
  // fully consistent.
  ASSERT_EQ(kdd.read(peer, buf, nullptr), IoStatus::kOk);
  EXPECT_EQ(buf, p2);
  int guard = 0;
  while (engine.rebuild_active()) {
    ASSERT_LT(++guard, 10000);
    kdd.on_idle(nullptr);
  }
  EXPECT_EQ(array.rebuild_stale_folds(), 0u);
  ASSERT_EQ(kdd.read(victim, buf, nullptr), IoStatus::kOk);
  EXPECT_EQ(buf, vdata);
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

}  // namespace
}  // namespace kdd
