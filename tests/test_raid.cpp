#include "raid/raid_array.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "test_util.hpp"

namespace kdd {
namespace {

using testing::ReferenceModel;
using testing::test_page;

RaidGeometry geo5() {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 64;
  return geo;
}

RaidGeometry geo6() {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid6;
  geo.num_disks = 6;
  geo.chunk_pages = 4;
  geo.disk_pages = 64;
  return geo;
}

void verify_all(RaidArray& array, const ReferenceModel& model) {
  Page buf = make_page();
  for (Lba lba = 0; lba < array.data_pages(); ++lba) {
    ASSERT_EQ(array.read_page(lba, buf), IoStatus::kOk) << "lba " << lba;
    ASSERT_EQ(buf, model.read(lba)) << "lba " << lba;
  }
}

TEST(RaidArray, WriteReadRoundTrip) {
  RaidArray array(geo5());
  ReferenceModel model;
  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    const Lba lba = rng.next_below(array.data_pages());
    const Page data = test_page(lba, static_cast<std::uint64_t>(i));
    ASSERT_EQ(array.write_page(lba, data), IoStatus::kOk);
    model.write(lba, data);
  }
  verify_all(array, model);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(RaidArray, RmwPlanShape) {
  RaidArray array(geo5());
  IoPlan plan;
  ASSERT_EQ(array.write_page(7, test_page(7), &plan), IoStatus::kOk);
  // RAID-5 small write: 2 reads then 2 writes.
  ASSERT_EQ(plan.phases().size(), 2u);
  EXPECT_EQ(plan.phases()[0].size(), 2u);
  EXPECT_EQ(plan.phases()[1].size(), 2u);
  EXPECT_EQ(plan.phases()[0][0].kind, IoKind::kRead);
  EXPECT_EQ(plan.phases()[1][0].kind, IoKind::kWrite);
}

TEST(RaidArray, Raid6RmwTouchesBothParities) {
  RaidArray array(geo6());
  IoPlan plan;
  ASSERT_EQ(array.write_page(3, test_page(3), &plan), IoStatus::kOk);
  ASSERT_EQ(plan.phases().size(), 2u);
  EXPECT_EQ(plan.phases()[0].size(), 3u);  // data + P + Q reads
  EXPECT_EQ(plan.phases()[1].size(), 3u);
  EXPECT_TRUE(array.scrub().empty());
}

class DegradedReadTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DegradedReadTest, Raid5SurvivesAnySingleDiskLoss) {
  RaidArray array(geo5());
  ReferenceModel model;
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const Lba lba = rng.next_below(array.data_pages());
    const Page data = test_page(lba, static_cast<std::uint64_t>(i));
    ASSERT_EQ(array.write_page(lba, data), IoStatus::kOk);
    model.write(lba, data);
  }
  array.fail_disk(GetParam());
  verify_all(array, model);
}

INSTANTIATE_TEST_SUITE_P(EachDisk, DegradedReadTest, ::testing::Values(0u, 1u, 2u, 3u, 4u));

TEST(RaidArray, Raid6SurvivesTwoDiskLoss) {
  RaidArray array(geo6());
  ReferenceModel model;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const Lba lba = rng.next_below(array.data_pages());
    const Page data = test_page(lba, static_cast<std::uint64_t>(i));
    ASSERT_EQ(array.write_page(lba, data), IoStatus::kOk);
    model.write(lba, data);
  }
  for (std::uint32_t d1 = 0; d1 < 6; ++d1) {
    for (std::uint32_t d2 = d1 + 1; d2 < 6; ++d2) {
      RaidArray fresh(geo6());
      for (const auto& [lba, page] : model.pages()) {
        ASSERT_EQ(fresh.write_page(lba, page), IoStatus::kOk);
      }
      fresh.fail_disk(d1);
      fresh.fail_disk(d2);
      Page buf = make_page();
      for (Lba lba = 0; lba < fresh.data_pages(); lba += 7) {
        ASSERT_EQ(fresh.read_page(lba, buf), IoStatus::kOk)
            << "disks " << d1 << "," << d2 << " lba " << lba;
        ASSERT_EQ(buf, model.read(lba));
      }
    }
  }
}

TEST(RaidArray, Raid5ThreeLossesFail) {
  RaidArray array(geo5());
  array.fail_disk(0);
  array.fail_disk(1);
  Page buf = make_page();
  // Some page on disk 0 or 1 becomes unreadable (double failure on RAID-5).
  bool any_failed = false;
  for (Lba lba = 0; lba < array.data_pages(); ++lba) {
    if (array.read_page(lba, buf) == IoStatus::kFailed) any_failed = true;
  }
  EXPECT_TRUE(any_failed);
}

TEST(RaidArray, DegradedWritesKeepDataReadable) {
  RaidArray array(geo5());
  ReferenceModel model;
  Rng rng(4);
  array.fail_disk(2);
  for (int i = 0; i < 200; ++i) {
    const Lba lba = rng.next_below(array.data_pages());
    const Page data = test_page(lba, 1000u + static_cast<std::uint64_t>(i));
    ASSERT_EQ(array.write_page(lba, data), IoStatus::kOk);
    model.write(lba, data);
  }
  verify_all(array, model);
}

TEST(RaidArray, RebuildRestoresFailedDisk) {
  RaidArray array(geo5());
  ReferenceModel model;
  Rng rng(5);
  for (int i = 0; i < 250; ++i) {
    const Lba lba = rng.next_below(array.data_pages());
    const Page data = test_page(lba, static_cast<std::uint64_t>(i));
    ASSERT_EQ(array.write_page(lba, data), IoStatus::kOk);
    model.write(lba, data);
  }
  array.fail_disk(1);
  EXPECT_EQ(array.rebuild_disk(1), 0u);  // no stale parity -> safe rebuild
  EXPECT_FALSE(array.disk_failed(1));
  verify_all(array, model);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(RaidArray, NoParWriteMarksGroupStaleAndScrubAgrees) {
  RaidArray array(geo5());
  Rng rng(6);
  std::set<GroupId> expected;
  for (int i = 0; i < 40; ++i) {
    const Lba lba = rng.next_below(array.data_pages());
    ASSERT_EQ(array.write_page_nopar(lba, test_page(lba, 9)), IoStatus::kOk);
    expected.insert(array.layout().group_of(lba));
  }
  EXPECT_EQ(array.stale_group_count(), expected.size());
  const std::vector<GroupId> bad = array.scrub();
  // Every scrub mismatch must be a tracked-stale group. (A nopar write can
  // coincidentally leave parity consistent if the data did not change, but
  // test_page contents always differ from zero-initialised disks.)
  EXPECT_EQ(std::set<GroupId>(bad.begin(), bad.end()), expected);
}

TEST(RaidArray, UpdateParityRmwRepairsStaleGroups) {
  RaidArray array(geo5());
  const Lba lba = 13;
  const Page before = test_page(lba, 0);
  ASSERT_EQ(array.write_page(lba, before), IoStatus::kOk);
  const Page after = test_page(lba, 1);
  ASSERT_EQ(array.write_page_nopar(lba, after), IoStatus::kOk);
  EXPECT_EQ(array.stale_group_count(), 1u);

  const Page diff = xor_pages(before, after);
  const GroupId g = array.layout().group_of(lba);
  const GroupDelta delta{array.layout().index_in_group(lba), &diff};
  ASSERT_EQ(array.update_parity_rmw(g, {&delta, 1}), IoStatus::kOk);
  EXPECT_EQ(array.stale_group_count(), 0u);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(RaidArray, PartialRmwKeepsGroupStale) {
  RaidArray array(geo5());
  const Lba a = 0;
  const Lba b = array.layout().group_member(array.layout().group_of(0), 1);
  ASSERT_EQ(array.write_page(a, test_page(a, 0)), IoStatus::kOk);
  ASSERT_EQ(array.write_page(b, test_page(b, 0)), IoStatus::kOk);
  ASSERT_EQ(array.write_page_nopar(a, test_page(a, 1)), IoStatus::kOk);
  ASSERT_EQ(array.write_page_nopar(b, test_page(b, 1)), IoStatus::kOk);

  const Page diff_a = xor_pages(test_page(a, 0), test_page(a, 1));
  const GroupId g = array.layout().group_of(a);
  const GroupDelta delta{array.layout().index_in_group(a), &diff_a};
  ASSERT_EQ(array.update_parity_rmw(g, {&delta, 1}, nullptr, /*finalize=*/false),
            IoStatus::kOk);
  EXPECT_TRUE(array.group_stale(g));
  // Folding in the second delta finalizes the group.
  const Page diff_b = xor_pages(test_page(b, 0), test_page(b, 1));
  const GroupDelta delta_b{array.layout().index_in_group(b), &diff_b};
  ASSERT_EQ(array.update_parity_rmw(g, {&delta_b, 1}), IoStatus::kOk);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(RaidArray, ResyncAllStaleRepairsEverything) {
  RaidArray array(geo5());
  Rng rng(8);
  for (int i = 0; i < 60; ++i) {
    const Lba lba = rng.next_below(array.data_pages());
    ASSERT_EQ(array.write_page_nopar(lba, test_page(lba, 2)), IoStatus::kOk);
  }
  const std::uint64_t stale = array.stale_group_count();
  EXPECT_GT(stale, 0u);
  EXPECT_EQ(array.resync_all_stale(), stale);
  EXPECT_EQ(array.stale_group_count(), 0u);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(RaidArray, RebuildFromStaleParityIsDetected) {
  // The vulnerability window of Section II-B: rebuilding data from stale
  // parity yields corrupted contents, and rebuild_disk reports it.
  RaidArray array(geo5());
  const Lba lba = 5;
  ASSERT_EQ(array.write_page(lba, test_page(lba, 0)), IoStatus::kOk);
  ASSERT_EQ(array.write_page_nopar(lba, test_page(lba, 1)), IoStatus::kOk);
  const std::uint32_t disk = array.layout().map(lba).disk;
  array.fail_disk(disk);
  EXPECT_GT(array.rebuild_disk(disk), 0u);
  Page buf = make_page();
  ASSERT_EQ(array.read_page(lba, buf), IoStatus::kOk);
  EXPECT_NE(buf, test_page(lba, 1)) << "rebuild from stale parity should corrupt";
}

TEST(RaidArray, UpdateParityReconstructUsesCallerData) {
  RaidArray array(geo5());
  const GroupId g = 3;
  const std::uint32_t dd = array.geometry().data_disks();
  std::vector<Page> current(dd);
  for (std::uint32_t k = 0; k < dd; ++k) {
    const Lba lba = array.layout().group_member(g, k);
    current[k] = test_page(lba, 7);
    ASSERT_EQ(array.write_page_nopar(lba, current[k]), IoStatus::kOk);
  }
  std::vector<const Page*> ptrs;
  for (const Page& p : current) ptrs.push_back(&p);
  IoPlan plan;
  ASSERT_EQ(array.update_parity_reconstruct(g, ptrs, &plan), IoStatus::kOk);
  // All data supplied: no disk reads, only the parity write.
  ASSERT_EQ(plan.phases().size(), 1u);
  EXPECT_EQ(plan.phases()[0].size(), 1u);
  EXPECT_EQ(plan.phases()[0][0].kind, IoKind::kWrite);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(RaidArray, FullStripeWriteNeedsNoReads) {
  RaidArray array(geo5());
  const GroupId g = 9;
  std::vector<Page> data;
  for (std::uint32_t k = 0; k < array.geometry().data_disks(); ++k) {
    data.push_back(test_page(array.layout().group_member(g, k), 4));
  }
  IoPlan plan;
  ASSERT_EQ(array.write_group(g, data, &plan), IoStatus::kOk);
  ASSERT_EQ(plan.phases().size(), 1u);
  EXPECT_EQ(plan.phases()[0].size(), 5u);  // 4 data + parity
  EXPECT_TRUE(array.scrub().empty());
  Page buf = make_page();
  for (std::uint32_t k = 0; k < array.geometry().data_disks(); ++k) {
    ASSERT_EQ(array.read_page(array.layout().group_member(g, k), buf), IoStatus::kOk);
    EXPECT_EQ(buf, data[k]);
  }
}

TEST(RaidArray, Raid6ScrubCatchesCorruption) {
  RaidArray array(geo6());
  ASSERT_EQ(array.write_page(11, test_page(11)), IoStatus::kOk);
  EXPECT_TRUE(array.scrub().empty());
  const DiskAddr a = array.layout().map(11);
  array.disk(a.disk).corrupt_page(a.page, 0x42);
  const std::vector<GroupId> bad = array.scrub();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], array.layout().group_of(11));
}

TEST(RaidArray, ScrubAndRepairFixesCorruptedParity) {
  RaidArray array(geo5());
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    const Lba lba = rng.next_below(array.data_pages());
    ASSERT_EQ(array.write_page(lba, test_page(lba)), IoStatus::kOk);
  }
  // Corrupt two parity pages directly (e.g. latent media error).
  const DiskAddr p1 = array.layout().parity_addr(3);
  const DiskAddr p2 = array.layout().parity_addr(17);
  array.disk(p1.disk).corrupt_page(p1.page, 0x81);
  array.disk(p2.disk).corrupt_page(p2.page, 0x42);
  EXPECT_EQ(array.scrub().size(), 2u);
  EXPECT_EQ(array.scrub_and_repair(), 2u);
  EXPECT_TRUE(array.scrub().empty());
  // Data (the authority) is untouched.
  Page buf = make_page();
  for (int i = 0; i < 50; ++i) {
    const Lba lba = rng.next_below(array.data_pages());
    ASSERT_EQ(array.read_page(lba, buf), IoStatus::kOk);
  }
}

TEST(RaidArray, Raid0HasNoParityOverhead) {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid0;
  geo.num_disks = 4;
  geo.chunk_pages = 4;
  geo.disk_pages = 32;
  RaidArray array(geo);
  IoPlan plan;
  ASSERT_EQ(array.write_page(0, test_page(0), &plan), IoStatus::kOk);
  EXPECT_EQ(plan.total_ops(), 1u);
  Page buf = make_page();
  ASSERT_EQ(array.read_page(0, buf), IoStatus::kOk);
  EXPECT_EQ(buf, test_page(0));
}

TEST(RaidArray, CountersTrackDeviceIo) {
  RaidArray array(geo5());
  array.reset_counters();
  ASSERT_EQ(array.write_page(0, test_page(0)), IoStatus::kOk);
  EXPECT_EQ(array.total_disk_reads(), 2u);   // RMW: old data + old parity
  EXPECT_EQ(array.total_disk_writes(), 2u);  // data + parity
}

// ---------------------------------------------------------------------------
// Reconstruct-write from caller-supplied row-mates
// ---------------------------------------------------------------------------

/// Writes version `v` of every data member of group `g` conventionally.
void fill_group(RaidArray& array, GroupId g, std::uint64_t v) {
  for (std::uint32_t k = 0; k < array.geometry().data_disks(); ++k) {
    const Lba lba = array.layout().group_member(g, k);
    ASSERT_EQ(array.write_page(lba, test_page(lba, v)), IoStatus::kOk);
  }
}

/// Row-mate images for a write of data index `target` of group `g`: the
/// first `supply` row-mates point at `images` (version `v` of each), the
/// others are null.
std::vector<const Page*> row_mates(const RaidArray& array, GroupId g,
                                   std::uint32_t target, std::uint32_t supply,
                                   std::uint64_t v, std::vector<Page>& images) {
  const std::uint32_t dd = array.geometry().data_disks();
  images.assign(dd, Page());
  std::vector<const Page*> members(dd, nullptr);
  for (std::uint32_t k = 0; k < dd && supply > 0; ++k) {
    if (k == target) continue;
    images[k] = test_page(array.layout().group_member(g, k), v);
    members[k] = &images[k];
    --supply;
  }
  return members;
}

std::size_t count_ops(const IoPlan& plan, IoKind kind) {
  std::size_t n = 0;
  for (const auto& phase : plan.phases()) {
    for (const DeviceOp& op : phase) n += op.kind == kind ? 1 : 0;
  }
  return n;
}

TEST(RaidReconstructWrite, Raid5ReadsOnlyTheRowMatesItWasNotGiven) {
  // Three row-mates: RMW reads 2 pages, reconstruct-write the row-mates
  // not supplied. 3 supplied -> 0 reads, 2 -> 1; 1 supplied ties RMW's 2
  // reads and stays RMW, as does none.
  const std::uint64_t expected_reads[] = {2, 2, 1, 0};
  for (std::uint32_t supply = 0; supply <= 3; ++supply) {
    RaidArray array(geo5());
    const GroupId g = 6;
    fill_group(array, g, 0);
    const std::uint32_t target = 1;
    const Lba lba = array.layout().group_member(g, target);
    std::vector<Page> images;
    const std::vector<const Page*> members =
        row_mates(array, g, target, supply, 0, images);
    array.reset_counters();
    IoPlan plan;
    ASSERT_EQ(array.write_page(lba, test_page(lba, 1), members, &plan), IoStatus::kOk);
    EXPECT_EQ(array.total_disk_reads(), expected_reads[supply]) << "supplied " << supply;
    EXPECT_EQ(array.total_disk_writes(), 2u) << "supplied " << supply;
    EXPECT_EQ(count_ops(plan, IoKind::kRead), expected_reads[supply]);
    EXPECT_EQ(count_ops(plan, IoKind::kWrite), 2u);
    ASSERT_EQ(plan.phases().size(), 2u);
    if (supply >= 2) {
      // The data write rides with the member reads; only parity waits.
      EXPECT_EQ(plan.phases()[0].back().kind, IoKind::kWrite);
      ASSERT_EQ(plan.phases()[1].size(), 1u);
      EXPECT_EQ(plan.phases()[1][0].page, array.layout().parity_addr(g).page);
    }
    EXPECT_TRUE(array.scrub().empty()) << "supplied " << supply;
    EXPECT_FALSE(array.group_stale(g));
    Page buf = make_page();
    ASSERT_EQ(array.read_page(lba, buf), IoStatus::kOk);
    EXPECT_EQ(buf, test_page(lba, 1));
  }
}

TEST(RaidReconstructWrite, NoImagesIsRmwWhateverTheGeometry) {
  // Three disks: reconstruct-write would read one row-mate against RMW's
  // two reads, but with no image supplied the write stays RMW.
  RaidGeometry geo = geo5();
  geo.num_disks = 3;
  RaidArray array(geo);
  const std::vector<const Page*> none(geo.data_disks(), nullptr);
  array.reset_counters();
  ASSERT_EQ(array.write_page(4, test_page(4), none, nullptr), IoStatus::kOk);
  EXPECT_EQ(array.total_disk_reads(), 2u);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(RaidReconstructWrite, Raid6TakesItWheneverAtMostTwoRowMatesComeFromDisk) {
  // RMW reads old data, P and Q: three reads. Reconstruct-write reads the
  // row-mates not supplied, so one supplied row-mate already pays.
  const std::uint64_t expected_reads[] = {3, 2, 1, 0};
  for (std::uint32_t supply = 0; supply <= 3; ++supply) {
    RaidArray array(geo6());
    const GroupId g = 9;
    fill_group(array, g, 0);
    const std::uint32_t target = 2;
    const Lba lba = array.layout().group_member(g, target);
    std::vector<Page> images;
    const std::vector<const Page*> members =
        row_mates(array, g, target, supply, 0, images);
    array.reset_counters();
    IoPlan plan;
    ASSERT_EQ(array.write_page(lba, test_page(lba, 1), members, &plan), IoStatus::kOk);
    EXPECT_EQ(array.total_disk_reads(), expected_reads[supply]) << "supplied " << supply;
    EXPECT_EQ(array.total_disk_writes(), 3u) << "supplied " << supply;
    EXPECT_EQ(count_ops(plan, IoKind::kRead), expected_reads[supply]);
    EXPECT_TRUE(array.scrub().empty()) << "supplied " << supply;
  }
}

TEST(RaidReconstructWrite, StaleGroupStaysStaleAndItsPendingDeltaStillFolds) {
  // Row-mate 0 was rewritten without a parity update: parity still reflects
  // its version 0. Images of the versions the parity reflects keep the
  // pending delta exact — the write leaves the group stale, and folding the
  // delta afterwards scrubs clean.
  RaidArray array(geo5());
  const GroupId g = 4;
  fill_group(array, g, 0);
  const Lba old_mate = array.layout().group_member(g, 0);
  ASSERT_EQ(array.write_page_nopar(old_mate, test_page(old_mate, 1)), IoStatus::kOk);
  ASSERT_TRUE(array.group_stale(g));

  const std::uint32_t target = 3;
  const Lba lba = array.layout().group_member(g, target);
  std::vector<Page> images;
  const std::vector<const Page*> members = row_mates(array, g, target, 3, 0, images);
  array.reset_counters();
  ASSERT_EQ(array.write_page(lba, test_page(lba, 1), members, nullptr), IoStatus::kOk);
  EXPECT_EQ(array.total_disk_reads(), 0u);
  EXPECT_TRUE(array.group_stale(g));

  const Page diff = xor_pages(test_page(old_mate, 0), test_page(old_mate, 1));
  const GroupDelta delta{0, &diff};
  ASSERT_EQ(array.update_parity_rmw(g, {&delta, 1}), IoStatus::kOk);
  EXPECT_FALSE(array.group_stale(g));
  EXPECT_TRUE(array.scrub().empty());
  Page buf = make_page();
  ASSERT_EQ(array.read_page(lba, buf), IoStatus::kOk);
  EXPECT_EQ(buf, test_page(lba, 1));
}

TEST(RaidReconstructWrite, RowMateReadFaultFallsBackToRmw) {
  // The one row-mate left to read from disk is unreadable: RMW never reads
  // it, so the write falls back to RMW before writing anything.
  RaidArray array(geo5());
  const GroupId g = 5;
  fill_group(array, g, 0);
  const std::uint32_t target = 0;
  const Lba lba = array.layout().group_member(g, target);
  std::vector<Page> images;
  const std::vector<const Page*> members = row_mates(array, g, target, 2, 0, images);
  const DiskAddr unread = array.layout().map(array.layout().group_member(g, 3));
  array.faults(unread.disk).inject_media_error(unread.page);
  IoPlan plan;
  ASSERT_EQ(array.write_page(lba, test_page(lba, 1), members, &plan), IoStatus::kOk);
  EXPECT_EQ(count_ops(plan, IoKind::kRead), 2u);  // RMW: old data + parity
  EXPECT_EQ(count_ops(plan, IoKind::kWrite), 2u);
  EXPECT_TRUE(array.scrub().empty());
  Page buf = make_page();
  ASSERT_EQ(array.read_page(lba, buf), IoStatus::kOk);
  EXPECT_EQ(buf, test_page(lba, 1));
}

// ---------------------------------------------------------------------------
// Partial faults and self-healing
// ---------------------------------------------------------------------------

TEST(RaidFaults, ReadRepairHealsLatentSectorError) {
  RaidArray array(geo5());
  ReferenceModel model;
  for (Lba lba = 0; lba < 32; ++lba) {
    const Page data = test_page(lba);
    ASSERT_EQ(array.write_page(lba, data), IoStatus::kOk);
    model.write(lba, data);
  }
  // A latent sector error under lba 5: the disk is healthy, one page is not.
  const Lba victim = 5;
  const DiskAddr a = array.layout().map(victim);
  array.faults(a.disk).inject_media_error(a.page);
  ASSERT_EQ(array.faults(a.disk).pending_media_errors(), 1u);

  // The read succeeds anyway (parity reconstruction) and the healing path is
  // visible in the fault counters: the error was *hit* and then *healed* by
  // the write-back — not just papered over.
  Page buf = make_page();
  ASSERT_EQ(array.read_page(victim, buf), IoStatus::kOk);
  EXPECT_EQ(buf, model.read(victim));
  EXPECT_EQ(array.read_repairs(), 1u);
  const FaultCounters& fc = array.faults(a.disk).fault_counters();
  EXPECT_EQ(fc.media_error_reads, 1u);
  EXPECT_EQ(fc.media_errors_healed, 1u);
  EXPECT_EQ(array.faults(a.disk).pending_media_errors(), 0u);

  // Healed for real: the next read is served by the media, no second repair.
  ASSERT_EQ(array.read_page(victim, buf), IoStatus::kOk);
  EXPECT_EQ(buf, model.read(victim));
  EXPECT_EQ(array.read_repairs(), 1u);
  EXPECT_EQ(array.faults(a.disk).fault_counters().media_error_reads, 1u);
  EXPECT_TRUE(array.scrub().empty());
}

TEST(RaidFaults, Raid6QReadErrorInAStaleGroupWritesNothing) {
  // A row-mate's deferred write made the group stale; then the group's Q
  // page rots. The small write cannot update Q, so it must fail before its
  // data or P reach the disks — not leave Q behind them unmarked.
  RaidArray array(geo6());
  const GroupId g = 7;
  fill_group(array, g, 0);
  const Lba mate = array.layout().group_member(g, 1);
  ASSERT_EQ(array.write_page_nopar(mate, test_page(mate, 1)), IoStatus::kOk);
  const DiskAddr pa = array.layout().parity_addr(g);
  const Page p_before(array.disk(pa.disk).raw_page(pa.page).begin(),
                      array.disk(pa.disk).raw_page(pa.page).end());
  const DiskAddr qa = array.layout().q_parity_addr(g);
  array.faults(qa.disk).inject_media_error(qa.page);

  const Lba target = array.layout().group_member(g, 0);
  EXPECT_EQ(array.write_page(target, test_page(target, 1)), IoStatus::kFailed);
  Page buf = make_page();
  ASSERT_EQ(array.read_page(target, buf), IoStatus::kOk);
  EXPECT_EQ(buf, test_page(target, 0));
  EXPECT_TRUE(std::equal(p_before.begin(), p_before.end(),
                         array.disk(pa.disk).raw_page(pa.page).begin()));
  EXPECT_TRUE(array.group_stale(g));
}

TEST(RaidFaults, Raid6QReadErrorInACleanGroupRecordsEachWriteOnce) {
  // Same rot in a clean group: the general path recomputes P and Q from
  // the whole group (healing Q). Its writes are the only writes recorded.
  RaidArray array(geo6());
  const GroupId g = 7;
  fill_group(array, g, 0);
  const DiskAddr qa = array.layout().q_parity_addr(g);
  array.faults(qa.disk).inject_media_error(qa.page);
  const Lba target = array.layout().group_member(g, 0);
  IoPlan plan;
  ASSERT_EQ(array.write_page(target, test_page(target, 1), &plan), IoStatus::kOk);
  EXPECT_EQ(count_ops(plan, IoKind::kWrite), 3u);  // data, P, Q
  EXPECT_EQ(count_ops(plan, IoKind::kRead), 3u);   // the three row-mates
  EXPECT_TRUE(array.scrub().empty());
}

TEST(RaidFaults, Raid6ParityRmwReadsQBeforeRewritingP) {
  // A deferred parity update whose Q read fails must leave P alone too, so
  // P and Q still describe the same (stale) contents.
  RaidArray array(geo6());
  const GroupId g = 3;
  fill_group(array, g, 0);
  const Lba mate = array.layout().group_member(g, 2);
  ASSERT_EQ(array.write_page_nopar(mate, test_page(mate, 1)), IoStatus::kOk);
  const DiskAddr pa = array.layout().parity_addr(g);
  const Page p_before(array.disk(pa.disk).raw_page(pa.page).begin(),
                      array.disk(pa.disk).raw_page(pa.page).end());
  const DiskAddr qa = array.layout().q_parity_addr(g);
  array.faults(qa.disk).inject_media_error(qa.page);

  const Page diff = xor_pages(test_page(mate, 0), test_page(mate, 1));
  const GroupDelta delta{2, &diff};
  EXPECT_EQ(array.update_parity_rmw(g, {&delta, 1}), IoStatus::kMediaError);
  EXPECT_TRUE(std::equal(p_before.begin(), p_before.end(),
                         array.disk(pa.disk).raw_page(pa.page).begin()));
  EXPECT_TRUE(array.group_stale(g));
}

TEST(RaidFaults, RebuildDoubleFaultReportsExactLostStripes) {
  const RaidGeometry geo = geo5();
  RaidArray array(geo);
  ReferenceModel model;
  for (Lba lba = 0; lba < array.data_pages(); ++lba) {
    const Page data = test_page(lba);
    ASSERT_EQ(array.write_page(lba, data), IoStatus::kOk);
    model.write(lba, data);
  }

  const std::uint32_t failed = 2;
  // Pick two stripes in different rows where disk 2 holds *data*, and plant a
  // latent sector error on a survivor member of each — the classic
  // double-fault during rebuild.
  std::vector<GroupId> sabotaged;
  std::vector<Lba> lost_lbas;
  for (std::uint64_t row = 0; row < geo.stripe_rows() && sabotaged.size() < 2;
       row += 3) {
    if (array.layout().parity_disk(row) == failed) continue;
    const GroupId g = row * geo.chunk_pages;  // first group of the row
    std::uint32_t failed_idx = geo.data_disks();
    for (std::uint32_t k = 0; k < geo.data_disks(); ++k) {
      if (array.layout().data_disk(row, k) == failed) failed_idx = k;
    }
    ASSERT_LT(failed_idx, geo.data_disks());
    // Survivor member: any other data member of the group.
    const std::uint32_t survivor_idx = failed_idx == 0 ? 1 : 0;
    const Lba survivor_lba = array.layout().group_member(g, survivor_idx);
    const DiskAddr s = array.layout().map(survivor_lba);
    array.faults(s.disk).inject_media_error(s.page);
    sabotaged.push_back(g);
    lost_lbas.push_back(array.layout().group_member(g, failed_idx));
    // The sabotaged survivor itself is also unreconstructable afterwards
    // (its stripe now has two bad members), so it must fail cleanly too.
    lost_lbas.push_back(survivor_lba);
  }
  ASSERT_EQ(sabotaged.size(), 2u);

  array.fail_disk(failed);
  EXPECT_EQ(array.rebuild_disk(failed), 0u);  // parity was fresh everywhere

  // The data-loss report names exactly the sabotaged stripes — no more, no less.
  std::set<GroupId> lost(array.last_rebuild_lost().begin(),
                         array.last_rebuild_lost().end());
  EXPECT_EQ(lost, std::set<GroupId>(sabotaged.begin(), sabotaged.end()));

  // Reads of the unreconstructable pages fail *cleanly*: an error status,
  // never fabricated bytes.
  Page buf = make_page();
  for (const Lba lba : lost_lbas) {
    EXPECT_NE(array.read_page(lba, buf), IoStatus::kOk) << "lba " << lba;
  }
  // Every other page is intact.
  std::set<Lba> lost_set(lost_lbas.begin(), lost_lbas.end());
  for (Lba lba = 0; lba < array.data_pages(); ++lba) {
    if (lost_set.contains(lba)) continue;
    ASSERT_EQ(array.read_page(lba, buf), IoStatus::kOk) << "lba " << lba;
    ASSERT_EQ(buf, model.read(lba)) << "lba " << lba;
  }
}

TEST(RaidFaults, DoubleFaultOnSurvivorMidRebuildLosesOnlyThatStripe) {
  const RaidGeometry geo = geo5();
  RaidArray array(geo);
  ReferenceModel model;
  for (Lba lba = 0; lba < array.data_pages(); ++lba) {
    const Page data = test_page(lba);
    ASSERT_EQ(array.write_page(lba, data), IoStatus::kOk);
    model.write(lba, data);
  }

  // Incremental (online) rebuild: lose disk 2, reconstruct the first chunks,
  // THEN a survivor dies under a not-yet-rebuilt stripe — the mid-rebuild
  // double fault. Only that one stripe may be reported lost.
  const std::uint32_t failed = 2;
  array.fail_disk(failed);
  array.rebuild_begin(failed);
  ASSERT_EQ(array.rebuild_step(8), 8u);  // cursor now at group 8

  std::uint64_t row = 8 / geo.chunk_pages;  // first un-rebuilt row
  while (array.layout().parity_disk(row) == failed) ++row;
  const GroupId g = row * geo.chunk_pages;
  ASSERT_GE(g, array.rebuild_cursor());
  std::uint32_t failed_idx = geo.data_disks();
  for (std::uint32_t k = 0; k < geo.data_disks(); ++k) {
    if (array.layout().data_disk(row, k) == failed) failed_idx = k;
  }
  ASSERT_LT(failed_idx, geo.data_disks());
  const std::uint32_t survivor_idx = failed_idx == 0 ? 1 : 0;
  const Lba survivor_lba = array.layout().group_member(g, survivor_idx);
  const Lba lost_lba = array.layout().group_member(g, failed_idx);
  const DiskAddr s = array.layout().map(survivor_lba);
  array.faults(s.disk).inject_media_error(s.page);

  while (array.rebuild_step(16) != 0) {
  }
  array.rebuild_finish();
  EXPECT_FALSE(array.degraded());

  // Exactly the sabotaged stripe is lost — groups already past the cursor and
  // every healthy stripe after it came through intact.
  ASSERT_EQ(array.last_rebuild_lost().size(), 1u);
  EXPECT_EQ(array.last_rebuild_lost().front(), g);

  // Both unreconstructable members fail cleanly — no fabricated bytes.
  Page buf = make_page();
  EXPECT_NE(array.read_page(lost_lba, buf), IoStatus::kOk);
  EXPECT_NE(array.read_page(survivor_lba, buf), IoStatus::kOk);
  for (Lba lba = 0; lba < array.data_pages(); ++lba) {
    if (lba == lost_lba || lba == survivor_lba) continue;
    ASSERT_EQ(array.read_page(lba, buf), IoStatus::kOk) << "lba " << lba;
    ASSERT_EQ(buf, model.read(lba)) << "lba " << lba;
  }
}

TEST(RaidFaults, Raid6RebuildAbsorbsSurvivorMediaError) {
  const RaidGeometry geo = geo6();
  RaidArray array(geo);
  ReferenceModel model;
  for (Lba lba = 0; lba < array.data_pages(); ++lba) {
    const Page data = test_page(lba, 1);
    ASSERT_EQ(array.write_page(lba, data), IoStatus::kOk);
    model.write(lba, data);
  }
  const std::uint32_t failed = 1;
  // One survivor media error in a stripe where disk 1 holds data: RAID-6 has
  // two erasures' worth of redundancy, so the rebuild must absorb it.
  std::uint64_t row = 0;
  while (array.layout().parity_disk(row) == failed ||
         array.layout().q_parity_disk(row) == failed) {
    ++row;
  }
  const GroupId g = row * geo.chunk_pages;
  std::uint32_t failed_idx = geo.data_disks();
  for (std::uint32_t k = 0; k < geo.data_disks(); ++k) {
    if (array.layout().data_disk(row, k) == failed) failed_idx = k;
  }
  ASSERT_LT(failed_idx, geo.data_disks());
  const std::uint32_t survivor_idx = failed_idx == 0 ? 1 : 0;
  const DiskAddr s = array.layout().map(array.layout().group_member(g, survivor_idx));
  array.faults(s.disk).inject_media_error(s.page);

  array.fail_disk(failed);
  EXPECT_EQ(array.rebuild_disk(failed), 0u);
  EXPECT_TRUE(array.last_rebuild_lost().empty());
  verify_all(array, model);
}

}  // namespace
}  // namespace kdd
