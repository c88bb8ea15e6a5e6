// Tests for the extension features: LARC-style selective admission, the
// randomized invariant fuzzer, the concurrent facade with a real cleaning
// thread, trace analysis, and KDD over RAID-6.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <thread>

#include "cache/ghost_lru.hpp"
#include "compress/content.hpp"
#include "harness/harness.hpp"
#include "kdd/concurrent.hpp"
#include "kdd/kdd_cache.hpp"
#include "test_util.hpp"
#include "trace/analysis.hpp"
#include "trace/generators.hpp"
#include "trace/zipf_workload.hpp"

namespace kdd {
namespace {

using testing::ReferenceModel;
using testing::test_page;

RaidGeometry small_geo(RaidLevel level = RaidLevel::kRaid5,
                       std::uint32_t disks = 5) {
  RaidGeometry geo;
  geo.level = level;
  geo.num_disks = disks;
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

// ---------------------------------------------------------------------------
// GhostLru / selective admission
// ---------------------------------------------------------------------------

TEST(GhostLru, SecondTouchAdmits) {
  GhostLru ghost(4);
  EXPECT_FALSE(ghost.touch_and_check(1));
  EXPECT_TRUE(ghost.touch_and_check(1));   // second miss admits
  EXPECT_FALSE(ghost.touch_and_check(1));  // entry was consumed
}

TEST(GhostLru, CapacityEvictsOldest) {
  GhostLru ghost(2);
  ghost.touch_and_check(1);
  ghost.touch_and_check(2);
  ghost.touch_and_check(3);               // evicts 1
  EXPECT_FALSE(ghost.touch_and_check(1));  // forgotten
  EXPECT_TRUE(ghost.touch_and_check(3));
  EXPECT_EQ(ghost.capacity(), 2u);
}

TEST(GhostLru, EraseRemovesEntry) {
  GhostLru ghost(4);
  ghost.touch_and_check(7);
  ghost.erase(7);
  EXPECT_FALSE(ghost.touch_and_check(7));
  ghost.erase(99);  // erasing an absent key is fine
}

TEST(GhostLru, MatchesAReferenceWindowUnderRandomOps) {
  // The window holds the last `capacity` recorded misses. A hit or an erase
  // consumes its entry; remember() records an address the window lacks.
  constexpr std::size_t kCap = 300;
  GhostLru ghost(kCap);
  std::deque<std::pair<Lba, bool>> ref;  // recorded misses, oldest first
  const auto record = [&](Lba lba) {
    ref.emplace_back(lba, true);
    if (ref.size() > kCap) ref.pop_front();
  };
  Rng rng(5);
  for (int i = 0; i < 20000; ++i) {
    const Lba lba = rng.next_below(1000);
    const auto it = std::find(ref.begin(), ref.end(), std::make_pair(lba, true));
    const bool present = it != ref.end();
    switch (rng.next_below(3)) {
      case 0:
        ASSERT_EQ(ghost.touch_and_check(lba), present) << "op " << i;
        if (present) {
          it->second = false;
        } else {
          record(lba);
        }
        break;
      case 1:
        ghost.remember(lba);
        if (!present) record(lba);
        break;
      default:
        ghost.erase(lba);
        if (present) it->second = false;
        break;
    }
    const auto live = static_cast<std::size_t>(std::count_if(
        ref.begin(), ref.end(), [](const auto& e) { return e.second; }));
    ASSERT_EQ(ghost.size(), live) << "op " << i;
  }
}

TEST(SelectiveAdmission, OneTouchScanIsNotCached) {
  KddCache kdd(small_config(), small_geo());
  // A pure scan: every page touched once.
  for (Lba lba = 0; lba < 100; ++lba) kdd.read(lba, {}, nullptr);
  EXPECT_EQ(kdd.stats().total_ssd_writes(), 0u);  // nothing admitted
  // Second touches admit.
  for (Lba lba = 0; lba < 100; ++lba) kdd.read(lba, {}, nullptr);
  EXPECT_GT(kdd.stats().ssd_writes[static_cast<int>(SsdWriteKind::kReadFill)], 0u);
  // Third touches hit (a few pages may fall victim to set-conflict
  // evictions, so allow a small shortfall).
  const std::uint64_t hits_before = kdd.stats().read_hits;
  for (Lba lba = 0; lba < 100; ++lba) kdd.read(lba, {}, nullptr);
  EXPECT_GE(kdd.stats().read_hits - hits_before, 90u);
}

TEST(SelectiveAdmission, ReducesAllocationWritesOnScanHeavyWorkload) {
  const RaidGeometry geo = paper_geometry(30000);
  ZipfWorkloadConfig wcfg;
  wcfg.working_set_pages = 16384;
  wcfg.total_requests = 40000;
  wcfg.read_rate = 0.8;  // fill-dominated
  auto run = [&](bool larc) {
    PolicyConfig cfg = larc ? PolicyConfig{} : PolicyConfig::paper();
    cfg.ssd_pages = 2048;
    KddCache kdd(cfg, geo);
    const Trace trace = generate_zipf_trace(wcfg);
    return run_counter_trace(kdd, trace, geo.data_pages()).total_ssd_writes();
  };
  EXPECT_LT(run(true), run(false));
}

TEST(SelectiveAdmission, RealModeStaysCorrect) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(small_config(), &array, &ssd);
  ReferenceModel model;
  Rng rng(3);
  Page buf = make_page();
  for (int i = 0; i < 2000; ++i) {
    const Lba lba = rng.next_below(400);
    if (rng.next_bool(0.5)) {
      const Page data = test_page(lba, static_cast<std::uint64_t>(i));
      ASSERT_EQ(kdd.write(lba, data, nullptr), IoStatus::kOk);
      model.write(lba, data);
    } else {
      ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
      ASSERT_EQ(buf, model.read(lba));
    }
  }
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

// ---------------------------------------------------------------------------
// Invariant fuzzing
// ---------------------------------------------------------------------------

class KddFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KddFuzzTest, InvariantsHoldUnderRandomOperations) {
  PolicyConfig cfg = small_config();
  cfg.ssd_pages = 512;
  cfg.clean_high_watermark = 0.25;
  cfg.clean_low_watermark = 0.10;
  cfg.staging_buffer_bytes = 2 * kPageSize;
  KddCache kdd(cfg, small_geo());
  Rng rng(GetParam());
  for (int i = 0; i < 5000; ++i) {
    const Lba lba = rng.next_below(800);
    const double dice = rng.next_double();
    if (dice < 0.55) {
      kdd.write(lba, {}, nullptr);
    } else if (dice < 0.95) {
      kdd.read(lba, {}, nullptr);
    } else if (dice < 0.98) {
      kdd.on_idle(nullptr);
    } else {
      kdd.flush(nullptr);
    }
    if (i % 250 == 0) kdd.check_invariants();
  }
  kdd.check_invariants();
  kdd.flush(nullptr);
  kdd.check_invariants();
  EXPECT_EQ(kdd.stale_groups(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KddFuzzTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

TEST(KddFuzz, RealModeInvariantsWithMixedContent) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  PolicyConfig cfg = small_config();
  cfg.clean_high_watermark = 0.25;
  KddCache kdd(cfg, &array, &ssd);
  const ContentGenerator gen(4);
  ReferenceModel model;
  Rng rng(77);
  Page buf = make_page();
  for (int i = 0; i < 3000; ++i) {
    const Lba lba = rng.next_below(400);
    if (rng.next_bool(0.6)) {
      // Mix localities, including incompressible updates (fallback paths).
      const double locality = rng.next_bool(0.15) ? 1.0 : 0.2;
      const Page base = model.contains(lba) ? model.read(lba) : gen.base_page(lba);
      const Page data = model.contains(lba) ? gen.mutate(base, locality, rng) : base;
      ASSERT_EQ(kdd.write(lba, data, nullptr), IoStatus::kOk);
      model.write(lba, data);
    } else {
      ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
      ASSERT_EQ(buf, model.read(lba));
    }
    if (i % 200 == 0) kdd.check_invariants();
  }
  kdd.check_invariants();
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());
}

// ---------------------------------------------------------------------------
// Concurrent facade
// ---------------------------------------------------------------------------

TEST(ConcurrentCache, MultiThreadedReadYourWrites) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 512;
  SsdModel ssd(scfg);
  PolicyConfig cfg = small_config();
  cfg.ssd_pages = 512;
  KddCache kdd(cfg, &array, &ssd);
  ConcurrentCache cache(&kdd, &array.layout(), std::chrono::milliseconds(5));

  constexpr int kThreads = 4;
  constexpr Lba kRange = 200;  // disjoint per thread
  std::vector<std::thread> workers;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      ReferenceModel model;
      Page buf = make_page();
      const Lba base = static_cast<Lba>(t) * kRange;
      for (int i = 0; i < 600 && !failed; ++i) {
        const Lba lba = base + rng.next_below(kRange);
        if (rng.next_bool(0.5)) {
          const Page data = test_page(lba, static_cast<std::uint64_t>(i));
          if (cache.write(lba, data) != IoStatus::kOk) failed = true;
          model.write(lba, data);
        } else {
          if (cache.read(lba, buf) != IoStatus::kOk || buf != model.read(lba)) {
            failed = true;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(failed.load());
  cache.flush();
  EXPECT_TRUE(array.scrub().empty());
  kdd.check_invariants();
}

TEST(ConcurrentCache, BackgroundCleanerRunsWhileIdle) {
  PolicyConfig cfg = small_config(PolicyConfig::paper());
  cfg.clean_high_watermark = 0.95;  // only the idle trigger can clean
  KddCache kdd(cfg, small_geo());
  ConcurrentCache cache(&kdd, &kdd.raid().layout(), std::chrono::milliseconds(2));
  for (Lba lba = 0; lba < 20; ++lba) {
    cache.read(lba, {});
    cache.write(lba, {});
  }
  EXPECT_GT(kdd.stale_groups(), 0u);
  // Go idle and let the cleaner thread catch up. The budget is generous (a
  // loaded CI machine can starve the cleaner thread for a long time); the
  // loop exits on the first pass, so the common case stays at a few ms.
  for (int spin = 0; spin < 5000 && cache.cleaner_passes() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(cache.cleaner_passes(), 0u);
  EXPECT_EQ(kdd.stale_groups(), 0u);
  EXPECT_EQ(cache.stats().requests(), 40u);
}

// ---------------------------------------------------------------------------
// Trace analysis
// ---------------------------------------------------------------------------

TEST(Analysis, ReuseDistanceOfCyclicScan) {
  // Scanning N pages repeatedly gives every non-cold access distance N-1.
  Trace t;
  constexpr Lba kN = 64;
  for (int round = 0; round < 4; ++round) {
    for (Lba p = 0; p < kN; ++p) t.records.push_back({0, p, 1, true});
  }
  const ReuseProfile profile = compute_reuse_profile(t);
  EXPECT_EQ(profile.cold_accesses, kN);
  EXPECT_EQ(profile.total_accesses, 4 * kN);
  // distance 63 lands in bucket [63, 126].
  EXPECT_DOUBLE_EQ(profile.lru_hit_ratio(kN + 70), 0.75);
  EXPECT_DOUBLE_EQ(profile.lru_hit_ratio(8), 0.0);  // cache smaller than loop
}

TEST(Analysis, ReuseDistanceOfImmediateRepeats) {
  Trace t;
  for (Lba p = 0; p < 32; ++p) {
    t.records.push_back({0, p, 1, true});
    t.records.push_back({0, p, 1, true});  // distance 0
  }
  const ReuseProfile profile = compute_reuse_profile(t);
  EXPECT_EQ(profile.cold_accesses, 32u);
  ASSERT_FALSE(profile.distance_histogram.empty());
  EXPECT_EQ(profile.distance_histogram[0], 32u);  // all repeats in bucket 0
  EXPECT_DOUBLE_EQ(profile.lru_hit_ratio(1), 0.5);
}

TEST(Analysis, LruHitRatioIsMonotoneInCacheSize) {
  const Trace t = generate_preset("Fin2", 0.02);
  const ReuseProfile profile = compute_reuse_profile(t);
  double prev = -1.0;
  for (const std::uint64_t pages : {100ull, 1000ull, 10000ull, 100000ull}) {
    const double h = profile.lru_hit_ratio(pages);
    EXPECT_GE(h, prev);
    prev = h;
  }
  EXPECT_GT(prev, 0.2);
}

TEST(Analysis, WritesOnlyFilter) {
  Trace t;
  t.records = {{0, 1, 1, false}, {1, 2, 1, true}, {2, 1, 1, false}};
  const ReuseProfile all = compute_reuse_profile(t);
  const ReuseProfile writes = compute_reuse_profile(t, /*writes_only=*/true);
  EXPECT_EQ(all.total_accesses, 3u);
  EXPECT_EQ(writes.total_accesses, 2u);
  // In the write stream, the second write to page 1 has distance 0.
  ASSERT_FALSE(writes.distance_histogram.empty());
  EXPECT_EQ(writes.distance_histogram[0], 1u);
}

TEST(Analysis, SequentialityDetectsRuns) {
  Trace seq;
  for (Lba p = 0; p < 100; ++p) seq.records.push_back({0, p * 4, 4, true});
  EXPECT_GT(compute_sequentiality(seq).sequential_fraction, 0.95);
  EXPECT_DOUBLE_EQ(compute_sequentiality(seq).mean_request_pages, 4.0);

  Trace rnd;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    rnd.records.push_back({0, rng.next_below(1u << 30), 1, true});
  }
  EXPECT_LT(compute_sequentiality(rnd).sequential_fraction, 0.1);
}

TEST(Analysis, WorkingSetProfileSlicesByWindow) {
  Trace t;
  // Window 0: pages 0..9; window 1: page 5 only; window 3 (after a gap): 2 pages.
  for (Lba p = 0; p < 10; ++p) t.records.push_back({p, p, 1, true});
  t.records.push_back({1'000'000, 5, 1, true});
  t.records.push_back({3'000'000, 100, 2, false});
  const auto profile = compute_working_set_profile(t, 1'000'000);
  ASSERT_EQ(profile.size(), 3u);
  EXPECT_EQ(profile[0].distinct_pages, 10u);
  EXPECT_EQ(profile[0].requests, 10u);
  EXPECT_EQ(profile[1].distinct_pages, 1u);
  EXPECT_EQ(profile[2].distinct_pages, 2u);
  EXPECT_EQ(profile[2].window_start_us, 3'000'000u);
}

// ---------------------------------------------------------------------------
// KDD over RAID-6
// ---------------------------------------------------------------------------

TEST(KddRaid6, ReadYourWritesAndScrub) {
  const RaidGeometry geo = small_geo(RaidLevel::kRaid6, 6);
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(small_config(), &array, &ssd);
  const ContentGenerator gen(6);
  ReferenceModel model;
  Rng rng(8);
  Page buf = make_page();
  for (int i = 0; i < 2500; ++i) {
    const Lba lba = rng.next_below(400);
    if (rng.next_bool(0.55)) {
      const Page base = model.contains(lba) ? model.read(lba) : gen.base_page(lba);
      const Page data = model.contains(lba) ? gen.mutate(base, 0.25, rng) : base;
      ASSERT_EQ(kdd.write(lba, data, nullptr), IoStatus::kOk);
      model.write(lba, data);
    } else {
      ASSERT_EQ(kdd.read(lba, buf, nullptr), IoStatus::kOk);
      ASSERT_EQ(buf, model.read(lba));
    }
    if (i % 500 == 0) kdd.check_invariants();
  }
  kdd.flush(nullptr);
  EXPECT_TRUE(array.scrub().empty());  // both P and Q consistent
}

TEST(KddRaid6, SurvivesDoubleDiskFailureAfterFlush) {
  const RaidGeometry geo = small_geo(RaidLevel::kRaid6, 6);
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(small_config(), &array, &ssd);
  ReferenceModel model;
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const Lba lba = rng.next_below(300);
    const Page data = test_page(lba, static_cast<std::uint64_t>(i));
    ASSERT_EQ(kdd.write(lba, data, nullptr), IoStatus::kOk);
    model.write(lba, data);
  }
  kdd.flush(nullptr);
  array.fail_disk(1);
  array.fail_disk(4);
  Page buf = make_page();
  for (const auto& [lba, page] : model.pages()) {
    ASSERT_EQ(array.read_page(lba, buf), IoStatus::kOk);
    ASSERT_EQ(buf, page);
  }
}

}  // namespace
}  // namespace kdd
