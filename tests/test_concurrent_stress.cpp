// Stress tests for the sharded ConcurrentCache facade and the deterministic
// multi-threaded replay mode.
//
// Run these under ThreadSanitizer (`cmake -DKDD_SANITIZE=thread` or env
// KDD_SANITIZE=thread at configure time) to prove the striped-front-lock /
// inner-policy-mutex locking model: N writer threads over both disjoint and
// overlapping parity groups, with the background cleaner, flush barriers
// and an online disk failure racing them.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "blockdev/ssd_model.hpp"
#include "cache/nvram.hpp"
#include "harness/harness.hpp"
#include "kdd/concurrent.hpp"
#include "kdd/kdd_cache.hpp"
#include "obs/metrics.hpp"
#include "raid/raid_array.hpp"
#include "raid/rebuild.hpp"
#include "test_util.hpp"
#include "trace/generators.hpp"

namespace kdd {
namespace {

using ::kdd::testing::ReferenceModel;
using ::kdd::testing::test_page;

RaidGeometry stress_geo() {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 256;
  return geo;
}

PolicyConfig stress_config() {
  PolicyConfig cfg;
  cfg.ssd_pages = 256;
  cfg.ways = 8;
  cfg.clean_high_watermark = 0.25;
  cfg.clean_low_watermark = 0.10;
  return cfg;
}

// N writer threads over *disjoint* parity groups: each thread owns the LBAs
// whose group is congruent to its id, so every thread can check
// read-your-writes against its own private reference model while all of them
// run concurrently (plus the cleaner).
TEST(ConcurrentStress, DisjointGroupWritersReadTheirWrites) {
  const RaidGeometry geo = stress_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(stress_config(), &array, &ssd);
  ConcurrentCache cache(&kdd, &array.layout(), std::chrono::milliseconds(2));

  constexpr unsigned kThreads = 8;
  constexpr int kOpsPerThread = 600;
  const Lba span = std::min<Lba>(array.data_pages(), 640);
  std::atomic<int> failures{0};

  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(1000 + t);
      ReferenceModel model;
      Page buf = make_page();
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Draw until the LBA's group belongs to this thread.
        Lba lba = rng.next_below(span);
        while (array.layout().group_of(lba) % kThreads != t) {
          lba = rng.next_below(span);
        }
        if (rng.next_bool(0.6)) {
          const Page data = test_page(lba, static_cast<std::uint64_t>(i) * kThreads + t);
          if (cache.write(lba, data) != IoStatus::kOk) ++failures;
          model.write(lba, data);
        } else {
          if (cache.read(lba, buf) != IoStatus::kOk) ++failures;
          if (model.contains(lba) && buf != model.read(lba)) ++failures;
        }
      }
      // Final readback of everything this thread wrote.
      for (const auto& [lba, expect] : model.pages()) {
        if (cache.read(lba, buf) != IoStatus::kOk || buf != expect) ++failures;
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(failures.load(), 0);

  cache.flush();
  EXPECT_TRUE(array.scrub().empty());
  const ConcurrentCache::FrontStats front = cache.front_stats();
  EXPECT_GT(front.reads + front.writes,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

// N writer threads over *overlapping* parity groups: every thread hammers
// the same narrow LBA range. Interleaving is nondeterministic, so the
// invariants checked are structural: no request fails, parity scrubs clean
// after a flush, and the cache's internal bookkeeping stays consistent.
TEST(ConcurrentStress, OverlappingGroupWritersKeepParityConsistent) {
  const RaidGeometry geo = stress_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(stress_config(), &array, &ssd);
  ConcurrentCache cache(&kdd, &array.layout(), std::chrono::milliseconds(2));

  constexpr unsigned kThreads = 8;
  constexpr int kOpsPerThread = 500;
  constexpr Lba kHotSpan = 64;  // a handful of groups, all shared
  std::atomic<int> failures{0};

  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(2000 + t);
      Page buf = make_page();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const Lba lba = rng.next_below(kHotSpan);
        if (rng.next_bool(0.7)) {
          const Page data = test_page(lba, rng.next_u64());
          if (cache.write(lba, data) != IoStatus::kOk) ++failures;
        } else {
          if (cache.read(lba, buf) != IoStatus::kOk) ++failures;
        }
      }
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(failures.load(), 0);

  cache.flush();
  kdd.check_invariants();
  EXPECT_TRUE(array.scrub().empty());
  const ConcurrentCache::FrontStats front = cache.front_stats();
  EXPECT_EQ(front.reads + front.writes,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

// The cleaner must keep running while submitters are active, without ever
// tripping invariants (it takes the inner mutex only).
TEST(ConcurrentStress, CleanerRacesSubmitters) {
  const RaidGeometry geo = stress_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(stress_config(), &array, &ssd);
  ConcurrentCache cache(&kdd, &array.layout(), std::chrono::milliseconds(1));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(7);
    while (!stop.load()) {
      const Lba lba = rng.next_below(128);
      cache.write(lba, test_page(lba, rng.next_u64()));
      // Brief pauses give the cleaner idle windows to claim.
      if (rng.next_bool(0.05)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.store(true);
  writer.join();
  cache.flush();
  EXPECT_TRUE(array.scrub().empty());
  EXPECT_GT(cache.cleaner_passes(), 0u);
}

// ---------------------------------------------------------------------------
// Online disk failure under concurrent writers
// ---------------------------------------------------------------------------

OnlineRebuildConfig slow_rebuild() {
  OnlineRebuildConfig cfg;
  cfg.chunk_groups = 8;
  cfg.min_chunk_groups = 2;
  cfg.ops_between_steps = 4;
  cfg.pressure_window = 64;
  return cfg;
}

struct OnlineRig {
  OnlineRig()
      : array(stress_geo()), ssd(ssd_cfg()), nvram(kPageSize, 255),
        engine(&array, slow_rebuild()), kdd(cache_cfg(), &array, &ssd, &nvram),
        cache(bound_to(kdd, engine), &array.layout(), std::chrono::milliseconds(2)) {}

  static SsdConfig ssd_cfg() {
    SsdConfig cfg;
    cfg.logical_pages = 256;
    return cfg;
  }
  static PolicyConfig cache_cfg() {
    PolicyConfig cfg;
    cfg.ssd_pages = 256;
    cfg.ways = 8;
    return cfg;
  }
  /// Binds the rebuild engine before the facade is built: the facade starts
  /// its idle cleaner at once, and that thread reads the binding.
  static KddCache* bound_to(KddCache& kdd, RebuildEngine& engine) {
    kdd.bind_rebuild_engine(&engine);
    return &kdd;
  }

  RaidArray array;
  SsdModel ssd;
  NvramState nvram;
  RebuildEngine engine;
  KddCache kdd;
  ConcurrentCache cache;
};

// A writer stores each LBA exactly once while the main thread fails a disk
// mid-flight; degraded/rebuilding reads must then return every write.
TEST(ConcurrentStress, OnlineDiskFailureUnderAWriterThenRecovers) {
  OnlineRig rig;
  const Lba span = 200;
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (Lba lba = 0; lba < span; ++lba) {
      if (rig.cache.write(lba, test_page(lba, 1000 + lba)) != IoStatus::kOk) ++failures;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(rig.cache.handle_disk_failure_online(1));
  // Read the array state through the engine's exported gauge: the writer may
  // be pumping the rebuild under the policy mutex right now.
  EXPECT_NE(obs::MetricsRegistry::global().snapshot().gauge("kdd_array_state"),
            static_cast<std::int64_t>(ArrayHealth::kHealthy));
  writer.join();
  EXPECT_EQ(failures.load(), 0);

  Page buf = make_page();
  for (Lba lba = 0; lba < span; ++lba) {
    ASSERT_EQ(rig.cache.read(lba, buf), IoStatus::kOk) << "lba " << lba;
    ASSERT_EQ(buf, test_page(lba, 1000 + lba)) << "lba " << lba;
  }
  const ConcurrentCache::FrontStats front = rig.cache.front_stats();
  EXPECT_EQ(front.writes, span);
  EXPECT_EQ(front.read_errors + front.write_errors, 0u);
}

// Writers over disjoint parity groups racing repeated flush barriers, the
// idle cleaner and a disk failure landing mid-flight. Every request must
// succeed and every thread must read its own writes back, before and after
// the final flush.
TEST(ConcurrentStress, WritersRacingFlushAndDiskFailure) {
  OnlineRig rig;
  constexpr unsigned kSubmitters = 4;
  constexpr int kOpsPerThread = 300;
  const Lba span = std::min<Lba>(rig.array.data_pages(), 640);
  std::atomic<int> failures{0};
  std::vector<ReferenceModel> models(kSubmitters);

  std::vector<std::thread> submitters;
  for (unsigned t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(500 + t);
      ReferenceModel& model = models[t];
      Page buf = make_page();
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Each submitter owns the parity groups congruent to its id.
        Lba lba = rng.next_below(span);
        while (rig.array.layout().group_of(lba) % kSubmitters != t) {
          lba = rng.next_below(span);
        }
        if (rng.next_bool(0.7)) {
          fill_replay_page(lba, static_cast<std::uint64_t>(i), 7, buf);
          if (rig.cache.write(lba, buf) != IoStatus::kOk) ++failures;
          model.write(lba, buf);
        } else {
          if (rig.cache.read(lba, buf) != IoStatus::kOk) ++failures;
          if (model.contains(lba) && buf != model.read(lba)) ++failures;
        }
      }
    });
  }
  // Flush barriers racing the submitters.
  std::atomic<bool> stop_flusher{false};
  std::thread flusher([&] {
    while (!stop_flusher.load(std::memory_order_relaxed)) {
      rig.cache.flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });
  // Disk failure mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(rig.cache.handle_disk_failure_online(2));

  for (std::thread& s : submitters) s.join();
  stop_flusher.store(true, std::memory_order_relaxed);
  flusher.join();
  rig.cache.flush();
  EXPECT_EQ(failures.load(), 0);

  const ConcurrentCache::FrontStats front = rig.cache.front_stats();
  EXPECT_EQ(front.reads + front.writes,
            static_cast<std::uint64_t>(kSubmitters) * kOpsPerThread);
  Page buf = make_page();
  for (const ReferenceModel& model : models) {
    for (const auto& [lba, expect] : model.pages()) {
      ASSERT_EQ(rig.cache.read(lba, buf), IoStatus::kOk) << "lba " << lba;
      ASSERT_EQ(buf, expect) << "lba " << lba;
    }
  }
}

// The acceptance property of the replay mode: the final logical state after
// a multi-threaded replay is byte-identical to the single-threaded replay of
// the same trace (ops partitioned by parity group, payloads deterministic).
TEST(ConcurrentReplay, MultiThreadedStateMatchesSingleThreaded) {
  SyntheticTraceConfig tcfg = fin1_config(0.01);
  tcfg.seed = 5;
  const Trace trace = generate_synthetic_trace(tcfg);
  const RaidGeometry geo = paper_geometry(tcfg.unique_total());

  std::uint64_t digest1 = 0;
  CacheStats stats1;
  for (const unsigned threads : {1u, 4u}) {
    RaidArray array(geo);
    SsdConfig scfg;
    scfg.logical_pages = 1024;
    SsdModel ssd(scfg);
    PolicyConfig cfg;
    cfg.ssd_pages = scfg.logical_pages;
    KddCache kdd(cfg, &array, &ssd);
    ConcurrentCache cache(&kdd, &array.layout(), std::chrono::milliseconds(5));

    const ConcurrentReplayResult r = run_concurrent_trace(
        cache, array.layout(), trace, geo.data_pages(), threads, /*seed=*/3);
    EXPECT_EQ(r.front.reads + r.front.writes, r.ops);
    EXPECT_TRUE(array.scrub().empty());  // parity current at every count
    const std::uint64_t digest = replay_readback_digest(cache, geo.data_pages());
    if (threads == 1) {
      digest1 = digest;
      stats1 = r.stats;
    } else {
      EXPECT_EQ(digest, digest1);
      // Logical request counts are partition-invariant too.
      EXPECT_EQ(r.stats.read_hits + r.stats.read_misses,
                stats1.read_hits + stats1.read_misses);
      EXPECT_EQ(r.stats.write_hits + r.stats.write_misses,
                stats1.write_hits + stats1.write_misses);
    }
  }
}

// fill_replay_page is a pure function of (lba, version, seed).
TEST(ConcurrentReplay, ReplayPagesAreDeterministic) {
  Page a = make_page();
  Page b = make_page();
  fill_replay_page(17, 3, 42, a);
  fill_replay_page(17, 3, 42, b);
  EXPECT_EQ(a, b);
  fill_replay_page(17, 4, 42, b);
  EXPECT_NE(a, b);
  fill_replay_page(18, 3, 42, b);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace kdd
