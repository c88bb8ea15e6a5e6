#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>

#include "blockdev/mem_device.hpp"
#include "blockdev/ssd_model.hpp"
#include "blockdev/timing.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "test_util.hpp"

namespace kdd {
namespace {

using testing::ReferenceModel;
using testing::test_page;

TEST(MemBlockDevice, ReadWriteRoundTrip) {
  MemBlockDevice dev(16);
  const Page data = test_page(1);
  ASSERT_EQ(dev.write(3, data), IoStatus::kOk);
  Page out = make_page();
  ASSERT_EQ(dev.read(3, out), IoStatus::kOk);
  EXPECT_EQ(out, data);
  EXPECT_EQ(dev.counters().reads, 1u);
  EXPECT_EQ(dev.counters().writes, 1u);
}

TEST(MemBlockDevice, UnwrittenPagesAreZero) {
  MemBlockDevice dev(4);
  Page out(kPageSize, 0xff);
  ASSERT_EQ(dev.read(0, out), IoStatus::kOk);
  EXPECT_TRUE(all_zero(out));
}

TEST(MemBlockDevice, FailureBlocksIo) {
  MemBlockDevice dev(4);
  dev.fail();
  Page buf = make_page();
  EXPECT_EQ(dev.read(0, buf), IoStatus::kFailed);
  EXPECT_EQ(dev.write(0, buf), IoStatus::kFailed);
  dev.replace();
  EXPECT_EQ(dev.write(0, test_page(2)), IoStatus::kOk);
  ASSERT_EQ(dev.read(0, buf), IoStatus::kOk);
  EXPECT_EQ(buf, test_page(2));
}

TEST(MemBlockDevice, ReplaceBlanksContents) {
  MemBlockDevice dev(4);
  ASSERT_EQ(dev.write(1, test_page(3)), IoStatus::kOk);
  dev.fail();
  dev.replace();
  Page buf(kPageSize, 0xff);
  ASSERT_EQ(dev.read(1, buf), IoStatus::kOk);
  EXPECT_TRUE(all_zero(buf));
}

TEST(MemBlockDevice, CorruptPageFlipsBits) {
  MemBlockDevice dev(4);
  ASSERT_EQ(dev.write(0, test_page(4)), IoStatus::kOk);
  dev.corrupt_page(0, 0xff);
  Page buf = make_page();
  ASSERT_EQ(dev.read(0, buf), IoStatus::kOk);
  EXPECT_NE(buf, test_page(4));
}

SsdConfig small_ssd() {
  SsdConfig cfg;
  cfg.logical_pages = 512;
  cfg.pages_per_block = 16;
  cfg.overprovision = 0.10;
  cfg.gc_free_block_threshold = 3;
  return cfg;
}

TEST(SsdModel, ReadWriteRoundTrip) {
  SsdModel ssd(small_ssd());
  ASSERT_EQ(ssd.write(5, test_page(5)), IoStatus::kOk);
  Page out = make_page();
  ASSERT_EQ(ssd.read(5, out), IoStatus::kOk);
  EXPECT_EQ(out, test_page(5));
}

TEST(SsdModel, UnmappedReadsZero) {
  SsdModel ssd(small_ssd());
  Page out(kPageSize, 0xaa);
  ASSERT_EQ(ssd.read(7, out), IoStatus::kOk);
  EXPECT_TRUE(all_zero(out));
}

TEST(SsdModel, OverwriteKeepsLatest) {
  SsdModel ssd(small_ssd());
  ASSERT_EQ(ssd.write(9, test_page(9, 0)), IoStatus::kOk);
  ASSERT_EQ(ssd.write(9, test_page(9, 1)), IoStatus::kOk);
  Page out = make_page();
  ASSERT_EQ(ssd.read(9, out), IoStatus::kOk);
  EXPECT_EQ(out, test_page(9, 1));
}

TEST(SsdModel, TrimUnmaps) {
  SsdModel ssd(small_ssd());
  ASSERT_EQ(ssd.write(2, test_page(2)), IoStatus::kOk);
  ssd.trim(2);
  Page out(kPageSize, 0xbb);
  ASSERT_EQ(ssd.read(2, out), IoStatus::kOk);
  EXPECT_TRUE(all_zero(out));
}

TEST(SsdModel, GcPreservesDataUnderChurn) {
  // Overwrite far more than physical capacity; greedy GC must relocate
  // without losing anything.
  SsdModel ssd(small_ssd());
  ReferenceModel model;
  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    const Lba lba = rng.next_below(ssd.num_pages());
    const Page data = test_page(lba, static_cast<std::uint64_t>(i));
    ASSERT_EQ(ssd.write(lba, data), IoStatus::kOk);
    model.write(lba, data);
  }
  EXPECT_GT(ssd.wear().block_erases, 0u);
  Page out = make_page();
  for (Lba lba = 0; lba < ssd.num_pages(); ++lba) {
    ASSERT_EQ(ssd.read(lba, out), IoStatus::kOk);
    ASSERT_EQ(out, model.read(lba)) << "lba " << lba;
  }
}

TEST(SsdModel, WriteAmplificationAboveOneUnderRandomChurn) {
  SsdModel ssd(small_ssd());
  Rng rng(2);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(ssd.write(rng.next_below(ssd.num_pages()), test_page(1)), IoStatus::kOk);
  }
  const SsdWearStats wear = ssd.wear();
  EXPECT_EQ(wear.host_page_writes, 20000u);
  EXPECT_GT(wear.write_amplification(), 1.0);
  EXPECT_LT(wear.write_amplification(), 5.0);
  EXPECT_GT(wear.mean_erase_count, 0.0);
  EXPECT_GE(wear.max_erase_count, static_cast<std::uint32_t>(wear.mean_erase_count));
}

TEST(SsdModel, SequentialWritesHaveLowWriteAmplification) {
  SsdConfig cfg = small_ssd();
  SsdModel ssd(cfg);
  for (int round = 0; round < 20; ++round) {
    for (Lba lba = 0; lba < ssd.num_pages(); ++lba) {
      ASSERT_EQ(ssd.write(lba, test_page(lba)), IoStatus::kOk);
    }
  }
  // Whole-device sequential overwrite invalidates blocks wholesale.
  EXPECT_LT(ssd.wear().write_amplification(), 1.2);
}

TEST(SsdModel, TrimReducesGcWork) {
  // Fill the device, then churn on the lower half. If the (dead) upper half
  // is trimmed, GC no longer has to relocate it.
  auto churn = [](bool trim_dead_half) {
    SsdModel ssd(small_ssd());
    for (Lba lba = 0; lba < ssd.num_pages(); ++lba) ssd.write(lba, test_page(lba));
    if (trim_dead_half) {
      for (Lba lba = ssd.num_pages() / 2; lba < ssd.num_pages(); ++lba) ssd.trim(lba);
    }
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
      ssd.write(rng.next_below(ssd.num_pages() / 2), test_page(1));
    }
    return ssd.wear().gc_page_copies;
  };
  EXPECT_LT(churn(true), churn(false));
}

TEST(SsdModel, EnduranceConsumedGrowsWithWrites) {
  SsdModel ssd(small_ssd());
  Rng rng(4);
  EXPECT_EQ(ssd.endurance_consumed(), 0.0);
  for (int i = 0; i < 30000; ++i) {
    ssd.write(rng.next_below(ssd.num_pages()), test_page(1));
  }
  const double consumed = ssd.endurance_consumed();
  EXPECT_GT(consumed, 0.0);
  for (int i = 0; i < 30000; ++i) {
    ssd.write(rng.next_below(ssd.num_pages()), test_page(1));
  }
  EXPECT_GT(ssd.endurance_consumed(), consumed);
}

TEST(SsdModel, FailAndReplace) {
  SsdModel ssd(small_ssd());
  ASSERT_EQ(ssd.write(0, test_page(0)), IoStatus::kOk);
  ssd.fail();
  Page buf = make_page();
  EXPECT_EQ(ssd.read(0, buf), IoStatus::kFailed);
  EXPECT_EQ(ssd.write(0, buf), IoStatus::kFailed);
  ssd.replace();
  EXPECT_EQ(ssd.wear().host_page_writes, 0u);
  ASSERT_EQ(ssd.read(0, buf), IoStatus::kOk);
  EXPECT_TRUE(all_zero(buf));
}

// ---- Emulated media commit memory on first write, not at construction ----

/// Resident set size of this process, from /proc/self/statm.
std::int64_t rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::int64_t total_pages = 0;
  std::int64_t resident_pages = 0;
  statm >> total_pages >> resident_pages;
  return resident_pages * static_cast<std::int64_t>(sysconf(_SC_PAGESIZE));
}

constexpr std::int64_t kMiB = 1 << 20;
constexpr std::uint64_t kBigDevicePages = 64 * 1024;  // a 256 MiB image

void expect_every_page_zero(BlockDevice& dev) {
  Page buf(kPageSize);
  for (Lba p = 0; p < kBigDevicePages; ++p) {
    std::fill(buf.begin(), buf.end(), std::uint8_t{0xff});
    ASSERT_EQ(dev.read(p, buf), IoStatus::kOk);
    ASSERT_TRUE(all_zero(buf)) << "page " << p;
  }
}

/// Builds a 256 MiB device and checks that its memory follows the pages
/// written, not its capacity, and that replace() gives the memory back.
template <typename MakeDevice>
void expect_commit_on_first_write(MakeDevice make) {
  const std::int64_t start = rss_bytes();
  const auto dev = make();
  EXPECT_LT(rss_bytes() - start, 32 * kMiB) << "construction";

  expect_every_page_zero(*dev);
  const std::int64_t after_reads = rss_bytes();
  EXPECT_LT(after_reads - start, 32 * kMiB) << "reading every unwritten page";

  const Page data = test_page(7);
  for (Lba p = 0; p < kBigDevicePages; p += kBigDevicePages / 1024) {
    ASSERT_EQ(dev->write(p, data), IoStatus::kOk);
  }
  const std::int64_t written = rss_bytes() - after_reads;
  EXPECT_GE(written, 4 * kMiB) << "writing 1,024 pages";
  EXPECT_LE(written, 12 * kMiB) << "writing 1,024 pages";

  dev->replace();
  EXPECT_LT(rss_bytes() - start, 32 * kMiB) << "after replace()";
  expect_every_page_zero(*dev);
}

TEST(MemBlockDevice, MemoryIsCommittedOnFirstWrite) {
  expect_commit_on_first_write(
      [] { return std::make_unique<MemBlockDevice>(kBigDevicePages); });
}

TEST(SsdModel, FlashIsCommittedOnFirstWrite) {
  expect_commit_on_first_write([] {
    SsdConfig cfg;
    cfg.logical_pages = kBigDevicePages;
    return std::make_unique<SsdModel>(cfg);
  });
}

TEST(HddTiming, SequentialFasterThanRandom) {
  HddTimingModel model{HddTimingConfig{}};
  Rng rng(5);
  // Sequential run after positioning.
  SimTime seq = 0;
  model.service_time(IoKind::kRead, 1000, 1, rng);
  for (int i = 0; i < 100; ++i) {
    seq += model.service_time(IoKind::kRead, 1001 + static_cast<Lba>(i), 1, rng);
  }
  HddTimingModel model2{HddTimingConfig{}};
  SimTime rnd = 0;
  for (int i = 0; i < 100; ++i) {
    rnd += model2.service_time(IoKind::kRead, rng.next_below(1ull << 37), 1, rng);
  }
  EXPECT_LT(seq * 10, rnd);
}

TEST(HddTiming, RandomAccessInPlausibleRange) {
  const HddTimingConfig cfg;
  HddTimingModel model{cfg};
  Rng rng(6);
  OnlineStats stats;
  for (int i = 0; i < 2000; ++i) {
    stats.add(static_cast<double>(model.service_time(
        IoKind::kRead, rng.next_below(cfg.capacity_pages), 1, rng)));
  }
  // A 7,200 RPM disk averages ~8-14 ms per random access.
  EXPECT_GT(stats.mean(), 6000.0);
  EXPECT_LT(stats.mean(), 16000.0);
}

TEST(SsdTiming, WritesSlowerThanReads) {
  const SsdTimingModel model{SsdTimingConfig{}};
  Rng rng(7);
  OnlineStats reads, writes;
  for (int i = 0; i < 1000; ++i) {
    reads.add(static_cast<double>(model.service_time(IoKind::kRead, rng)));
    writes.add(static_cast<double>(model.service_time(IoKind::kWrite, rng)));
  }
  EXPECT_LT(reads.mean(), writes.mean());
  EXPECT_LT(writes.mean(), 1000.0);  // well under a millisecond
}

}  // namespace
}  // namespace kdd
