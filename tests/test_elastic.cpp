// Delta-zone extent accounting (src/cache/dez_space) and the adaptive
// DAZ/DEZ boundary with its elastic spare.

#include "cache/dez_space.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "cache/nvram.hpp"
#include "compress/content.hpp"
#include "kdd/kdd_cache.hpp"
#include "raid/rebuild.hpp"
#include "test_util.hpp"

namespace kdd {
namespace {

using testing::ReferenceModel;

// ---------------------------------------------------------------------------
// DezSpace: per-page extent accounting
// ---------------------------------------------------------------------------

TEST(DezSpace, AppendTracksTailLiveAndOffsets) {
  DezSpace sp;
  sp.reset(16);
  sp.open_page(3);
  EXPECT_TRUE(sp.tracked(3));
  EXPECT_EQ(sp.extent(3).remaining(), kPageSize);
  EXPECT_EQ(sp.append(3, 100), 0u);
  EXPECT_EQ(sp.append(3, 200), 100u);
  EXPECT_EQ(sp.append(3, 50), 300u);
  const DezSpace::Extent& e = sp.extent(3);
  EXPECT_EQ(e.tail, 350u);
  EXPECT_EQ(e.live_bytes, 350u);
  EXPECT_EQ(e.live_count, 3u);
  EXPECT_EQ(e.dead_bytes(), 0u);
  EXPECT_EQ(e.remaining(), kPageSize - 350u);
  EXPECT_EQ(sp.pages(), 1u);
  EXPECT_EQ(sp.live_bytes(), 350u);
}

TEST(DezSpace, DeadAndFreeAccounting) {
  DezSpace sp;
  sp.reset(8);
  sp.open_page(1);
  sp.append(1, 1000);
  sp.append(1, 500);
  sp.on_dead(1, 1000);
  EXPECT_EQ(sp.extent(1).live_bytes, 500u);
  EXPECT_EQ(sp.extent(1).live_count, 1u);
  EXPECT_EQ(sp.extent(1).dead_bytes(), 1000u);
  EXPECT_EQ(sp.dead_bytes(), 1000u);
  sp.on_dead(1, 500);
  sp.on_free(1);
  EXPECT_FALSE(sp.tracked(1));
  EXPECT_EQ(sp.pages(), 0u);
  EXPECT_EQ(sp.live_bytes(), 0u);
  EXPECT_EQ(sp.dead_bytes(), 0u);
  // The slot is reusable as a fresh extent afterwards.
  sp.open_page(1);
  EXPECT_EQ(sp.append(1, 64), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: boundary, spare, accounting
// ---------------------------------------------------------------------------

RaidGeometry small_geo() {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 256;
  return geo;
}

SsdConfig small_ssd() {
  SsdConfig cfg;
  cfg.logical_pages = 256;
  cfg.pages_per_block = 16;
  return cfg;
}

PolicyConfig elastic_cfg() {
  PolicyConfig cfg;
  cfg.ssd_pages = 256;
  cfg.ways = 8;
  return cfg;
}

/// Seeded read/write mix against a reference model; every read is verified.
void run_mix(KddCache& kdd, ReferenceModel& model, const ContentGenerator& gen,
             Rng& rng, int iters, Lba span, double mutate_ratio) {
  Page buf = make_page();
  for (int i = 0; i < iters; ++i) {
    const Lba lba = rng.next_below(span);
    if (rng.next_bool(0.6)) {
      const Page base = model.contains(lba) ? model.read(lba) : gen.base_page(lba);
      const Page data =
          model.contains(lba) ? gen.mutate(base, mutate_ratio, rng) : base;
      ASSERT_EQ(kdd.write(lba, data, nullptr), IoStatus::kOk) << "iter " << i;
      model.write(lba, data);
    } else {
      ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk) << "iter " << i;
      ASSERT_EQ(buf, model.read(lba)) << "lba " << lba << " iter " << i;
    }
  }
}

TEST(ElasticDez, BoundaryTracksCompressibilityWithoutThrashing) {
  RaidArray array(small_geo());
  SsdModel ssd(small_ssd());
  PolicyConfig cfg = elastic_cfg();
  cfg.adaptive_boundary = true;
  cfg.boundary_epoch_ops = 64;
  KddCache kdd(cfg, &array, &ssd);
  ReferenceModel model;
  const ContentGenerator gen(41);
  Rng rng(42);

  // Incompressible phase: the boundary must shrink the delta zone.
  run_mix(kdd, model, gen, rng, 1000, 120, 0.95);
  const std::uint64_t limit_incompressible = kdd.dez_boundary_pages();
  ASSERT_GT(limit_incompressible, 0u);

  // Compressible phase: the zone earns pages back.
  run_mix(kdd, model, gen, rng, 1000, 120, 0.05);
  const std::uint64_t limit_compressible = kdd.dez_boundary_pages();
  EXPECT_GT(limit_compressible, limit_incompressible);

  // Hysteresis: compressibility flipping on every single update must not
  // thrash the boundary. The EWMA settles near the blend and the dead band
  // absorbs its residual ripple, so across 32 epochs the boundary makes at
  // most a short initial approach — not a move per epoch.
  const std::uint64_t moves_before = kdd.boundary_moves();
  Page buf = make_page();
  for (int i = 0; i < 2048; ++i) {
    const Lba lba = rng.next_below(120);
    const double ratio = (i % 2) == 0 ? 0.95 : 0.05;
    if (rng.next_bool(0.6)) {
      const Page base =
          model.contains(lba) ? model.read(lba) : gen.base_page(lba);
      const Page data =
          model.contains(lba) ? gen.mutate(base, ratio, rng) : base;
      ASSERT_EQ(kdd.write(lba, data, nullptr), IoStatus::kOk) << "iter " << i;
      model.write(lba, data);
    } else {
      ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk) << "iter " << i;
      ASSERT_EQ(buf, model.read(lba)) << "iter " << i;
    }
  }
  const std::uint64_t moves = kdd.boundary_moves() - moves_before;
  EXPECT_LE(moves, 10u) << "boundary thrashes under alternating compressibility";
  kdd.check_invariants();
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(ElasticDez, ElasticSpareBoostsCleaningHeadroomWhenDegraded) {
  RaidArray array(small_geo());
  SsdModel ssd(small_ssd());
  NvramState nvram(kPageSize, 255);
  OnlineRebuildConfig rcfg;
  rcfg.chunk_groups = 4;
  rcfg.min_chunk_groups = 2;
  rcfg.ops_between_steps = 8;
  RebuildEngine engine(&array, rcfg);
  PolicyConfig cfg = elastic_cfg();
  cfg.adaptive_boundary = true;
  cfg.boundary_epoch_ops = 64;
  auto kdd = std::make_unique<KddCache>(cfg, &array, &ssd, &nvram);
  kdd->bind_rebuild_engine(&engine);
  ReferenceModel model;
  const ContentGenerator gen(51);
  Rng rng(52);

  // Compressible traffic keeps DEZ usage small: the gap to the boundary is
  // the elastic spare, and a quarter of it pads the healthy-mode watermark.
  run_mix(*kdd, model, gen, rng, 1500, 150, 0.05);
  const std::uint64_t base_high = static_cast<std::uint64_t>(
      cfg.clean_high_watermark * static_cast<double>(kdd->sets().pages()));
  ASSERT_GT(kdd->elastic_spare_pages(), 0u);
  const std::uint64_t healthy_high = kdd->effective_clean_high_pages();
  EXPECT_GT(healthy_high, base_high);

  // Degraded: the whole spare absorbs rebuild-era cleaning pressure.
  ASSERT_TRUE(kdd->handle_disk_failure_online(2));
  const std::uint64_t degraded_high = kdd->effective_clean_high_pages();
  EXPECT_GT(degraded_high, healthy_high);

  // Live traffic through the rebuild, then verify everything survived.
  int guard = 0;
  while (engine.rebuild_active()) {
    ASSERT_LT(++guard, 40);
    run_mix(*kdd, model, gen, rng, 200, 150, 0.05);
  }
  Page buf = make_page();
  for (const auto& [lba, page] : model.pages()) {
    ASSERT_EQ(kdd->read(lba, buf, nullptr), IoStatus::kOk);
    ASSERT_EQ(buf, page) << "lba " << lba;
  }
  kdd->check_invariants();
  kdd->flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(ElasticDez, CounterModeAccountingMatchesInvariants) {
  // Counter mode: extent accounting is always-on and must stay consistent
  // with the slot mappings with the adaptive boundary enabled.
  PolicyConfig cfg = elastic_cfg();
  cfg.adaptive_boundary = true;
  cfg.boundary_epoch_ops = 64;
  cfg.delta_ratio_mean = 0.15;
  KddCache kdd(cfg, small_geo());
  Rng rng(61);
  for (int i = 0; i < 3000; ++i) {
    const Lba lba = rng.next_below(200);
    if (rng.next_bool(0.6)) {
      kdd.write(lba, {}, nullptr);
    } else {
      kdd.read(lba, {}, nullptr);
    }
    if (i % 500 == 499) kdd.check_invariants();
  }
  kdd.on_idle(nullptr);
  kdd.check_invariants();
}

}  // namespace
}  // namespace kdd
