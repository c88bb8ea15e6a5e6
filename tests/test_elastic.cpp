// Delta-zone extent accounting (src/cache/dez_space), alone and as KddCache
// keeps it.

#include "cache/dez_space.hpp"

#include <gtest/gtest.h>

#include "compress/content.hpp"
#include "kdd/kdd_cache.hpp"
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
// End-to-end: extent accounting against the slot mappings
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

TEST(ElasticDez, ModelVerifiedReadsThroughCompressibilityPhases) {
  // Near-incompressible updates, then highly compressible ones, then the two
  // alternating on every update: the delta zone fills and drains with deltas
  // of very different sizes while every read matches the model.
  RaidArray array(small_geo());
  SsdModel ssd(small_ssd());
  KddCache kdd(elastic_cfg(), &array, &ssd);
  ReferenceModel model;
  const ContentGenerator gen(41);
  Rng rng(42);
  run_mix(kdd, model, gen, rng, 1000, 120, 0.95);
  kdd.check_invariants();
  run_mix(kdd, model, gen, rng, 1000, 120, 0.05);
  kdd.check_invariants();
  for (int i = 0; i < 2048; ++i) {
    run_mix(kdd, model, gen, rng, 1, 120, (i % 2) == 0 ? 0.95 : 0.05);
  }
  kdd.check_invariants();
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(ElasticDez, CounterModeAccountingMatchesInvariants) {
  // Counter mode: extent accounting is always-on and must stay consistent
  // with the slot mappings.
  PolicyConfig cfg = elastic_cfg();
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
