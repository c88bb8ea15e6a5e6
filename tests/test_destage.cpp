// Tests for the batched destage pipeline (kdd/destage.hpp): the claim ->
// prepare -> fold -> commit protocol on KddCache, the disk-layout-ordered
// batch planner, and the acceptance property of the overhaul — the batched
// cleaner (inline or driven by the ConcurrentCache cleaner pool) converges
// to a final array state byte-identical to the same replay through no cache
// at all on a fig9-style trace.
#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "blockdev/ssd_model.hpp"
#include "harness/harness.hpp"
#include "kdd/concurrent.hpp"
#include "kdd/destage.hpp"
#include "kdd/kdd_cache.hpp"
#include "policies/nocache.hpp"
#include "raid/raid_array.hpp"
#include "trace/generators.hpp"

namespace kdd {
namespace {

constexpr std::uint64_t kSeed = 99;

/// LZ-friendly page content (head-quarter entropy, repeated-stamp body) so
/// successive versions produce small deltas that actually go old + staged —
/// test_page() is deliberately incompressible and would take the oversized-
/// delta fallback instead of dirtying groups.
Page versioned_page(Lba lba, std::uint64_t version) {
  Page p = make_page();
  fill_replay_page(lba, version, kSeed, p);
  return p;
}

RaidGeometry small_geo() {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 256;
  return geo;
}

/// Config whose watermarks never trigger inline cleaning, so tests can drive
/// the destage pipeline by hand without maybe_clean interfering.
PolicyConfig manual_config() {
  PolicyConfig cfg;
  cfg.ssd_pages = 256;
  cfg.ways = 8;
  cfg.clean_high_watermark = 1.0;
  cfg.clean_low_watermark = 0.99;
  return cfg;
}

/// Dirties `groups` distinct parity groups: one write miss (clean fill) plus
/// one write hit (old + staged delta) on the first LBA of each group.
std::vector<GroupId> dirty_groups(KddCache& kdd, const RaidLayout& layout,
                                  std::size_t groups) {
  std::vector<GroupId> out;
  Lba lba = 0;
  std::uint64_t version = 0;
  while (out.size() < groups) {
    const GroupId g = layout.group_of(lba);
    if (std::find(out.begin(), out.end(), g) == out.end()) {
      EXPECT_EQ(kdd.write(lba, versioned_page(lba, ++version)), IoStatus::kOk);
      EXPECT_EQ(kdd.write(lba, versioned_page(lba, ++version)), IoStatus::kOk);
      out.push_back(g);
    }
    ++lba;
  }
  return out;
}

TEST(DestageBatch, ClaimReturnsGroupsInDiskLayoutOrder) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(manual_config(), &array, &ssd);

  const std::vector<GroupId> dirtied = dirty_groups(kdd, array.layout(), 6);
  ASSERT_EQ(kdd.stale_groups(), 6u);

  DestageSource& src = kdd;
  const std::vector<GroupId> claimed = src.destage_claim(6);
  ASSERT_EQ(claimed.size(), 6u);
  // Disk-layout order: sorted by (parity disk, parity page).
  for (std::size_t i = 1; i < claimed.size(); ++i) {
    const DiskAddr a = array.layout().parity_addr(claimed[i - 1]);
    const DiskAddr b = array.layout().parity_addr(claimed[i]);
    EXPECT_TRUE(a.disk < b.disk || (a.disk == b.disk && a.page < b.page))
        << "claim not in disk-layout order at " << i;
  }
  // Claimed groups are exactly the dirtied ones.
  std::vector<GroupId> sorted_dirtied = dirtied;
  std::vector<GroupId> sorted_claimed = claimed;
  std::sort(sorted_dirtied.begin(), sorted_dirtied.end());
  std::sort(sorted_claimed.begin(), sorted_claimed.end());
  EXPECT_EQ(sorted_claimed, sorted_dirtied);

  // A second claim must not hand out in-flight groups...
  EXPECT_TRUE(src.destage_claim(6).empty());
  // ...until they are abandoned.
  src.destage_abandon(claimed);
  EXPECT_EQ(src.destage_claim(6).size(), 6u);
  src.destage_abandon(claimed);
  kdd.flush();
  EXPECT_TRUE(array.scrub().empty());
}

TEST(DestageBatch, ClaimHonoursMaxGroups) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(manual_config(), &array, &ssd);

  dirty_groups(kdd, array.layout(), 5);
  DestageSource& src = kdd;
  const std::vector<GroupId> first = src.destage_claim(2);
  EXPECT_EQ(first.size(), 2u);
  const std::vector<GroupId> second = src.destage_claim(16);
  EXPECT_EQ(second.size(), 3u);  // the remaining unclaimed groups
  src.destage_abandon(first);
  src.destage_abandon(second);
  kdd.flush();
}

TEST(DestageBatch, ManualPipelineCleansClaimedGroups) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(manual_config(), &array, &ssd);

  dirty_groups(kdd, array.layout(), 8);
  ASSERT_GT(kdd.old_pages(), 0u);

  DestageSource& src = kdd;
  for (;;) {
    const std::vector<GroupId> groups = src.destage_claim(3);
    if (groups.empty()) break;
    std::unique_ptr<DestageUnit> unit = src.destage_prepare(groups, nullptr);
    ASSERT_NE(unit, nullptr);
    unit->fold();  // no policy lock required here by contract
    src.destage_commit(*unit, nullptr);
  }
  EXPECT_EQ(kdd.stale_groups(), 0u);
  EXPECT_EQ(kdd.old_pages(), 0u);
  kdd.check_invariants();
  EXPECT_TRUE(array.scrub().empty());

  // Every page written is still readable with its final contents.
  Page buf = make_page();
  Lba lba = 0;
  std::uint64_t version = 0;
  std::size_t seen = 0;
  std::vector<GroupId> visited;
  while (seen < 8) {
    const GroupId g = array.layout().group_of(lba);
    if (std::find(visited.begin(), visited.end(), g) == visited.end()) {
      version += 2;
      ASSERT_EQ(kdd.read(lba, buf), IoStatus::kOk);
      EXPECT_EQ(buf, versioned_page(lba, version));
      visited.push_back(g);
      ++seen;
    }
    ++lba;
  }
}

TEST(DestageBatch, PrepareReleasesClaimsOfRepairedGroups) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(manual_config(), &array, &ssd);

  dirty_groups(kdd, array.layout(), 4);
  DestageSource& src = kdd;
  const std::vector<GroupId> groups = src.destage_claim(4);
  ASSERT_EQ(groups.size(), 4u);
  // Claims must be released before a blocking flush (the facade's drain
  // barrier guarantees this ordering); flush then repairs everything inline.
  src.destage_abandon(groups);
  kdd.flush();
  // Claiming again finds nothing, and preparing an empty claim yields null.
  EXPECT_TRUE(src.destage_claim(4).empty());
  EXPECT_TRUE(array.scrub().empty());
}

TEST(DestageBatch, BatchSizeHonoursConfigOverrideAndClampsAuto) {
  const RaidGeometry geo = small_geo();
  SsdConfig scfg;
  scfg.logical_pages = 256;

  PolicyConfig cfg = manual_config();
  cfg.destage_batch_groups = 7;
  {
    RaidArray array(geo);
    SsdModel ssd(scfg);
    KddCache kdd(cfg, &array, &ssd);
    EXPECT_EQ(kdd.destage_batch_size(), 7u);
    EXPECT_EQ(static_cast<DestageSource&>(kdd).destage_batch_hint(), 7u);
  }
  cfg.destage_batch_groups = 0;  // auto: watermark-gap / 4, clamped to [4, 64]
  {
    RaidArray array(geo);
    SsdModel ssd(scfg);
    KddCache kdd(cfg, &array, &ssd);
    EXPECT_GE(kdd.destage_batch_size(), 4u);
    EXPECT_LE(kdd.destage_batch_size(), 64u);
  }
}

// The acceptance property (fig9-style replay): inline batched cleaning and
// pool-driven batched cleaning both converge to the array contents of the
// same replay through no cache at all (ground truth: every write lands on
// the array directly). Stats may differ (the *order* groups are destaged in
// differs, so eviction timing differs) — the digest and a clean scrub are
// the invariants.
TEST(DestageBatch, BatchedAndPooledCleanersMatchNoCacheDigest) {
  SyntheticTraceConfig tcfg = fin1_config(0.01);
  tcfg.seed = 5;
  const Trace trace = generate_synthetic_trace(tcfg);
  const RaidGeometry geo = paper_geometry(tcfg.unique_total());

  std::uint64_t truth_digest = 0;
  std::uint64_t truth_requests = 0;
  {
    RaidArray array(geo);
    NoCachePolicy nossd(&array);
    ConcurrentCache cache(&nossd, &array.layout(), std::chrono::milliseconds(2));
    const ConcurrentReplayResult r = run_concurrent_trace(
        cache, array.layout(), trace, geo.data_pages(), /*threads=*/1, /*seed=*/3);
    EXPECT_TRUE(array.scrub().empty());
    truth_digest = replay_readback_digest(cache, geo.data_pages());
    truth_requests = r.ops;
  }
  ASSERT_GT(truth_requests, 0u);

  struct Run {
    const char* name;
    unsigned threads;
    std::uint32_t pool;
  };
  const Run runs[] = {
      {"batched-inline", 1, 0},
      {"batched-pool", 4, 3},
  };

  for (const Run& run : runs) {
    RaidArray array(geo);
    SsdConfig scfg;
    scfg.logical_pages = 1024;
    SsdModel ssd(scfg);
    PolicyConfig cfg;
    cfg.ssd_pages = scfg.logical_pages;
    cfg.clean_high_watermark = 0.25;
    cfg.clean_low_watermark = 0.10;
    KddCache kdd(cfg, &array, &ssd);
    ConcurrentCache cache(&kdd, &array.layout(), std::chrono::milliseconds(2),
                          run.pool);

    const ConcurrentReplayResult r = run_concurrent_trace(
        cache, array.layout(), trace, geo.data_pages(), run.threads, /*seed=*/3);
    EXPECT_TRUE(array.scrub().empty()) << run.name;
    kdd.check_invariants();
    const std::uint64_t digest = replay_readback_digest(cache, geo.data_pages());
    if (run.pool > 0) {
      EXPECT_EQ(cache.pool_threads(), run.pool) << run.name;
      EXPECT_GT(cache.pool_batches(), 0u) << run.name;
    }
    EXPECT_EQ(digest, truth_digest) << run.name;
    EXPECT_EQ(r.ops, truth_requests) << run.name;
  }
}

}  // namespace
}  // namespace kdd
