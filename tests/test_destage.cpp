// Tests for the batched destage pipeline (kdd/destage.hpp): the claim ->
// prepare -> fold -> commit stages on KddCache, the batch planner (the
// least recently written groups, issued in disk-layout order), and the
// acceptance property of the overhaul — the batched cleaner (with one
// submitter or four racing the ConcurrentCache idle cleaner) converges to a
// final array state byte-identical to the same replay through no cache at
// all on a fig9-style trace.
#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "blockdev/ssd_model.hpp"
#include "cache/nvram.hpp"
#include "harness/harness.hpp"
#include "kdd/concurrent.hpp"
#include "kdd/destage.hpp"
#include "kdd/dirty_groups.hpp"
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
/// the destage pipeline by hand without maybe_clean interfering. The paper's
/// residency admits on first touch, so one write miss plus one hit dirties
/// a group.
PolicyConfig manual_config() {
  PolicyConfig cfg = PolicyConfig::paper();
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

  const std::vector<GroupId> claimed = kdd.destage_claim(6);
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
  EXPECT_EQ(kdd.destage_claim(2).size(), 2u);
  EXPECT_EQ(kdd.destage_claim(16).size(), 5u);  // every dirty group
  kdd.flush();
}

/// Disk-layout order of parity groups: (parity disk, parity page).
bool layout_before(const RaidLayout& layout, GroupId a, GroupId b) {
  const DiskAddr pa = layout.parity_addr(a);
  const DiskAddr pb = layout.parity_addr(b);
  if (pa.disk != pb.disk) return pa.disk < pb.disk;
  if (pa.page != pb.page) return pa.page < pb.page;
  return a < b;
}

/// First LBA (from 0 up) that belongs to parity group `g`.
Lba first_lba_of(const RaidLayout& layout, GroupId g) {
  Lba lba = 0;
  while (layout.group_of(lba) != g) ++lba;
  return lba;
}

TEST(DirtyGroupTable, KeepsGroupsInLastWriteOrder) {
  DirtyGroupTable t;
  t.add_page(7, 10);
  t.add_page(3, 11);
  t.add_page(7, 12);  // a second old page: neither reordered nor restamped
  t.add_page(5, 13);
  t.touch(7);  // a delta staged for group 7: now the hottest
  t.check_invariants();
  std::vector<GroupId> order;
  t.visit_coldest_first([&](GroupId g) {
    order.push_back(g);
    return true;
  });
  EXPECT_EQ(order, (std::vector<GroupId>{3, 5, 7}));
  EXPECT_EQ(t.old_pages(7), 2u);
  EXPECT_EQ(t.old_pages(4), 0u);

  std::uint64_t since = 0;
  EXPECT_FALSE(t.remove_page(7, &since));  // one old page left
  EXPECT_TRUE(t.remove_page(3, &since));   // the cold end leaves the table
  EXPECT_EQ(since, 11u);
  EXPECT_TRUE(t.remove_page(7, &since));
  EXPECT_EQ(since, 10u);  // stale since its first old page
  t.check_invariants();
  order.clear();
  t.visit_coldest_first([&](GroupId g) {
    order.push_back(g);
    return true;
  });
  EXPECT_EQ(order, (std::vector<GroupId>{5}));
  t.clear();
  EXPECT_TRUE(t.empty());
  t.check_invariants();
}

TEST(DestageBatch, ClaimTakesLeastRecentlyWrittenGroupsInLayoutOrder) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  KddCache kdd(manual_config(), &array, &ssd);
  const RaidLayout& layout = array.layout();
  const auto before = [&](GroupId a, GroupId b) { return layout_before(layout, a, b); };

  // Eight groups dirtied in this order; then the lowest-addressed one, which
  // a heat-blind claim would take first, is written again and so is hottest.
  std::vector<GroupId> by_recency = dirty_groups(kdd, layout, 8);
  const GroupId lowest = *std::min_element(by_recency.begin(), by_recency.end(), before);
  const Lba hot = first_lba_of(layout, lowest);
  ASSERT_EQ(kdd.write(hot, versioned_page(hot, 1000)), IoStatus::kOk);
  ASSERT_EQ(kdd.old_pages(), 8u);
  std::erase(by_recency, lowest);
  by_recency.push_back(lowest);

  constexpr std::size_t kTake = 3;
  const std::vector<GroupId> claimed = kdd.destage_claim(kTake);
  // The three least recently written groups, issued in disk-layout order.
  std::vector<GroupId> expected(by_recency.begin(), by_recency.begin() + kTake);
  std::sort(expected.begin(), expected.end(), before);
  EXPECT_EQ(claimed, expected);
  EXPECT_EQ(std::count(claimed.begin(), claimed.end(), lowest), 0);

  kdd.flush();
  kdd.check_invariants();
  EXPECT_TRUE(array.scrub().empty());
}

TEST(DestageBatch, InlineCleanerLeavesAHotGroupDirtyWhileColderGroupsRemain) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  PolicyConfig cfg = manual_config();
  cfg.clean_high_watermark = 0.25;  // maybe_clean runs inline from here on
  cfg.clean_low_watermark = 0.10;
  KddCache kdd(cfg, &array, &ssd);
  const RaidLayout& layout = array.layout();

  // The hot group is the lowest-addressed one in the whole array, so a
  // heat-blind claim would pick it in every cleaning pass.
  const Lba span = array.data_pages();
  GroupId hot_group = layout.group_of(0);
  for (Lba lba = 1; lba < span; ++lba) {
    if (layout_before(layout, layout.group_of(lba), hot_group)) {
      hot_group = layout.group_of(lba);
    }
  }
  const Lba hot = first_lba_of(layout, hot_group);

  std::map<Lba, std::uint64_t> versions;
  const auto write = [&](Lba lba) {
    const std::uint64_t v = ++versions[lba];
    ASSERT_EQ(kdd.write(lba, versioned_page(lba, v)), IoStatus::kOk) << "lba " << lba;
  };
  write(hot);
  write(hot);  // miss, then hit: the hot group is dirty from here on
  ASSERT_TRUE(array.group_stale(hot_group));

  // A cold stream dirties one group after another (a miss then a hit per
  // LBA) while the hot LBA is rewritten every third request.
  std::size_t requests = 0;
  for (Lba lba = 0; lba < span && requests < 1500; ++lba) {
    if (layout.group_of(lba) == hot_group) continue;
    for (int i = 0; i < 2; ++i) {
      write(lba);
      if (++requests % 2 == 0) write(hot);
      ASSERT_TRUE(array.group_stale(hot_group))
          << "hot group destaged after " << requests << " cold writes";
    }
  }
  EXPECT_GT(kdd.stats().cleanings, 0u);
  EXPECT_GT(kdd.stats().groups_cleaned, 0u);
  kdd.check_invariants();

  kdd.flush();
  EXPECT_TRUE(array.scrub().empty());
  Page buf = make_page();
  for (const auto& [lba, v] : versions) {
    ASSERT_EQ(kdd.read(lba, buf), IoStatus::kOk) << "lba " << lba;
    EXPECT_EQ(buf, versioned_page(lba, v)) << "lba " << lba;
  }
}

TEST(DestageBatch, RecoveredGroupsAreColderThanEveryLaterWrite) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  const PolicyConfig cfg = manual_config();
  NvramState nvram(cfg.staging_buffer_bytes, cfg.metadata_buffer_entries);
  const RaidLayout& layout = array.layout();
  const auto before = [&](GroupId a, GroupId b) { return layout_before(layout, a, b); };

  // Five groups; the lowest-addressed one is dirtied only after the cut.
  std::vector<GroupId> groups;
  for (Lba lba = 0; groups.size() < 5; ++lba) {
    const GroupId g = layout.group_of(lba);
    if (std::find(groups.begin(), groups.end(), g) == groups.end()) groups.push_back(g);
  }
  const GroupId late = *std::min_element(groups.begin(), groups.end(), before);
  std::erase(groups, late);
  std::uint64_t version = 0;
  const auto dirty = [&](KddCache& kdd, GroupId g) {
    const Lba lba = first_lba_of(layout, g);
    ASSERT_EQ(kdd.write(lba, versioned_page(lba, ++version)), IoStatus::kOk);
    ASSERT_EQ(kdd.write(lba, versioned_page(lba, ++version)), IoStatus::kOk);
  };
  {
    KddCache kdd(cfg, &array, &ssd, &nvram);
    for (const GroupId g : groups) dirty(kdd, g);
  }  // power cut: DRAM state, recency included, is lost without a flush

  KddCache kdd(cfg, &array, &ssd, &nvram, /*recover=*/true);
  ASSERT_EQ(kdd.stale_groups(), groups.size());
  dirty(kdd, late);
  kdd.check_invariants();

  const std::vector<GroupId> claimed = kdd.destage_claim(groups.size());
  std::sort(groups.begin(), groups.end(), before);
  EXPECT_EQ(claimed, groups);  // every recovered group before the later one

  kdd.flush();
  EXPECT_TRUE(array.scrub().empty());
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

  for (;;) {
    const std::vector<GroupId> groups = kdd.destage_claim(3);
    if (groups.empty()) break;
    std::unique_ptr<BatchUnit> unit = kdd.destage_prepare(groups, nullptr);
    ASSERT_NE(unit, nullptr);
    unit->fold();  // pure compute over the snapshot
    kdd.destage_commit(*unit, nullptr);
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
  const std::vector<GroupId> groups = kdd.destage_claim(4);
  ASSERT_EQ(groups.size(), 4u);
  // Flush repairs everything inline; claiming again finds nothing, and
  // preparing the repaired groups yields null.
  kdd.flush();
  EXPECT_TRUE(kdd.destage_claim(4).empty());
  EXPECT_EQ(kdd.destage_prepare(groups, nullptr), nullptr);
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

// The acceptance property (fig9-style replay): batched cleaning with one
// submitter and with four submitters racing the 2 ms idle cleaner both
// converge to the array contents of the same replay through no cache at all
// (ground truth: every write lands on the array directly). Stats may differ
// (the *order* groups are destaged in differs, so eviction timing differs)
// — the digest and a clean scrub are the invariants.
TEST(DestageBatch, BatchedCleanerMatchesNoCacheDigestAtOneAndFourSubmitters) {
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
  };
  const Run runs[] = {
      {"batched-inline", 1},
      {"batched-4-submitters", 4},
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
    ConcurrentCache cache(&kdd, &array.layout(), std::chrono::milliseconds(2));

    const ConcurrentReplayResult r = run_concurrent_trace(
        cache, array.layout(), trace, geo.data_pages(), run.threads, /*seed=*/3);
    EXPECT_TRUE(array.scrub().empty()) << run.name;
    kdd.check_invariants();
    const std::uint64_t digest = replay_readback_digest(cache, geo.data_pages());
    EXPECT_EQ(digest, truth_digest) << run.name;
    EXPECT_EQ(r.ops, truth_requests) << run.name;
  }
}

}  // namespace
}  // namespace kdd
