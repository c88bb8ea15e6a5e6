// Edge cases and contracts: KDD under degraded arrays, cache pressure
// extremes, metadata-log wraparound under sustained churn, zero-capacity
// corner configurations.
#include <gtest/gtest.h>

#include "compress/content.hpp"
#include "harness/harness.hpp"
#include "kdd/kdd_cache.hpp"
#include "test_util.hpp"

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

TEST(KddDegraded, ReadsServeDegradedReconstruction) {
  // A disk dies mid-operation; read misses must still return correct data
  // (the RAID layer reconstructs), and cached pages keep serving.
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(small_config(), &array, &ssd);
  ReferenceModel model;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const Lba lba = rng.next_below(300);
    const Page data = test_page(lba, static_cast<std::uint64_t>(i));
    ASSERT_EQ(kdd.write(lba, data, nullptr), IoStatus::kOk);
    model.write(lba, data);
  }
  // Flush first (KDD's protocol before operating degraded), then fail.
  kdd.flush(nullptr);
  array.fail_disk(3);
  Page buf = make_page();
  for (const auto& [lba, page] : model.pages()) {
    ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
    ASSERT_EQ(buf, page) << "lba " << lba;
  }
}

TEST(KddDegraded, DeferredWriteToFailedDiskWritesThroughDegraded) {
  // write_page_nopar cannot place data on a dead disk. The degraded-mode
  // engine no longer surfaces that to the host: the cache falls back to a
  // conventional degraded write-through (the array reconstructs around the
  // lost member) and refreshes its copy, so the newest version keeps being
  // served from the cache while the member is down.
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(small_config(), &array, &ssd);
  const Lba lba = 10;
  const ContentGenerator gen(9);
  Rng rng(10);
  const Page v0 = gen.base_page(lba);
  ASSERT_EQ(kdd.write(lba, v0, nullptr), IoStatus::kOk);
  array.fail_disk(array.layout().map(lba).disk);
  // A compressible update would defer parity via write_page_nopar; with the
  // member down it is written through with full parity instead — never
  // stranded on the lost disk, never rejected.
  const Page v1 = gen.mutate(v0, 0.2, rng);
  EXPECT_EQ(kdd.write(lba, v1, nullptr), IoStatus::kOk);
  EXPECT_EQ(kdd.stale_groups(), 0u);  // no deferred parity on a lost member
  Page buf = make_page();
  ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
  EXPECT_EQ(buf, v1);
  EXPECT_GE(kdd.degraded_cache_hits(), 1u);
}

TEST(KddPressure, TinyCacheStaysCorrectUnderHeavyChurn) {
  // Cache of one set; constant conflict pressure, staging overflow, forced
  // cleaning and bypasses — correctness and invariants must hold throughout.
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 64;
  SsdModel ssd(scfg);
  PolicyConfig cfg;
  cfg.ssd_pages = 24;
  cfg.ways = 8;
  cfg.clean_high_watermark = 0.4;
  cfg.clean_low_watermark = 0.2;
  KddCache kdd(cfg, &array, &ssd);
  const ContentGenerator gen(2);
  ReferenceModel model;
  Rng rng(3);
  Page buf = make_page();
  for (int i = 0; i < 3000; ++i) {
    const Lba lba = rng.next_below(200);
    if (rng.next_bool(0.6)) {
      const Page base = model.contains(lba) ? model.read(lba) : gen.base_page(lba);
      const Page data = model.contains(lba) ? gen.mutate(base, 0.2, rng) : base;
      ASSERT_EQ(kdd.write(lba, data, nullptr), IoStatus::kOk);
      model.write(lba, data);
    } else {
      ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
      ASSERT_EQ(buf, model.read(lba)) << "iter " << i;
    }
    if (i % 300 == 0) kdd.check_invariants();
  }
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(KddPressure, MetadataLogWrapsManyTimesWithoutLoss) {
  // Sustained insert/evict churn pushes the circular log through many
  // wraparounds; a crash at the end must still recover exact state.
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 512;
  SsdModel ssd(scfg);
  NvramState nvram(kPageSize, 255);
  PolicyConfig cfg;
  cfg.ssd_pages = 512;
  auto kdd = std::make_unique<KddCache>(cfg, &array, &ssd, &nvram);
  const ContentGenerator gen(4);
  ReferenceModel model;
  Rng rng(5);
  for (int i = 0; i < 12000; ++i) {
    const Lba lba = rng.next_below(1000);  // footprint >> cache: heavy churn
    const Page base = model.contains(lba) ? model.read(lba) : gen.base_page(lba);
    const Page data = model.contains(lba) ? gen.mutate(base, 0.25, rng) : base;
    ASSERT_EQ(kdd->write(lba, data, nullptr), IoStatus::kOk);
    model.write(lba, data);
  }
  const std::uint64_t tail = nvram.log_tail;
  EXPECT_GT(tail, kdd->metadata_log().partition_pages() * 3) << "log should wrap";
  EXPECT_GT(kdd->metadata_log().gc_passes(), 0u);

  kdd = std::make_unique<KddCache>(cfg, &array, &ssd, &nvram, /*recover=*/true);
  kdd->check_invariants();
  Page buf = make_page();
  for (const auto& [lba, page] : model.pages()) {
    ASSERT_EQ(kdd->read(lba, buf, nullptr), IoStatus::kOk);
    ASSERT_EQ(buf, page);
  }
  kdd->flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(KddPressure, RepeatedCrashRecoverCycles) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  NvramState nvram(kPageSize, 255);
  PolicyConfig cfg = small_config();
  auto kdd = std::make_unique<KddCache>(cfg, &array, &ssd, &nvram);
  const ContentGenerator gen(6);
  ReferenceModel model;
  Rng rng(7);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 400; ++i) {
      const Lba lba = rng.next_below(300);
      const Page base = model.contains(lba) ? model.read(lba) : gen.base_page(lba);
      const Page data = model.contains(lba) ? gen.mutate(base, 0.25, rng) : base;
      ASSERT_EQ(kdd->write(lba, data, nullptr), IoStatus::kOk);
      model.write(lba, data);
    }
    kdd = std::make_unique<KddCache>(cfg, &array, &ssd, &nvram, /*recover=*/true);
    kdd->check_invariants();
  }
  Page buf = make_page();
  for (const auto& [lba, page] : model.pages()) {
    ASSERT_EQ(kdd->read(lba, buf, nullptr), IoStatus::kOk);
    ASSERT_EQ(buf, page);
  }
  kdd->flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(KddConfig, SingleSetCacheWorks) {
  PolicyConfig cfg;
  cfg.ssd_pages = 20;
  cfg.ways = 8;
  KddCache kdd(cfg, small_geo());
  for (Lba lba = 0; lba < 50; ++lba) {
    EXPECT_EQ(kdd.write(lba, {}, nullptr), IoStatus::kOk);
    EXPECT_EQ(kdd.read(lba, {}, nullptr), IoStatus::kOk);
  }
  kdd.flush(nullptr);
  kdd.check_invariants();
}

TEST(KddConfig, HugeStagingBufferDefersCommits) {
  PolicyConfig cfg = small_config(PolicyConfig::paper());
  cfg.ssd_pages = 512;
  cfg.staging_buffer_bytes = 64 * kPageSize;
  KddCache kdd(cfg, small_geo());
  for (Lba lba = 0; lba < 30; ++lba) kdd.read(lba, {}, nullptr);
  for (Lba lba = 0; lba < 30; ++lba) kdd.write(lba, {}, nullptr);
  // Everything still parked in NVRAM: no DEZ commits yet.
  EXPECT_EQ(kdd.stats().ssd_writes[static_cast<int>(SsdWriteKind::kDeltaCommit)], 0u);
  EXPECT_EQ(kdd.staged_deltas(), 30u);
  kdd.flush(nullptr);
  EXPECT_EQ(kdd.staged_deltas(), 0u);
}

TEST(WriteAmplification, CacheSsdBoundsCheckMetadata) {
  CacheSsd ssd(4, 16);
  EXPECT_EQ(ssd.metadata_pages(), 4u);
  EXPECT_EQ(ssd.cache_pages(), 16u);
  // Metadata slots wrap within the partition (caller responsibility), and
  // data indexing is offset past the partition.
  IoPlan plan;
  ssd.write_metadata(3, {}, &plan);
  ssd.write_data(0, SsdWriteKind::kReadFill, {}, &plan);
  EXPECT_EQ(plan.phases()[0][0].page, 3u);
  EXPECT_EQ(plan.phases()[1][0].page, 4u);
}

}  // namespace
}  // namespace kdd
