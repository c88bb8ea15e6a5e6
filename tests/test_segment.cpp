// Log-structured segment staging (src/cache/segment.*): stager unit tests
// (buffering, coalescing, header format, CRC rejection), the staged cache
// end-to-end against a reference model, and crash recovery's accept/discard
// exactness for the one in-flight segment.

#include "cache/segment.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/kernels.hpp"
#include "compress/content.hpp"
#include "kdd/kdd_cache.hpp"
#include "test_util.hpp"

namespace kdd {
namespace {

using testing::ReferenceModel;
using testing::test_page;

SegmentConfig small_segment() {
  SegmentConfig cfg;
  cfg.segment_pages = 4;
  cfg.ring_pages = 4;
  cfg.ring_base = 100;
  return cfg;
}

// ---------------------------------------------------------------------------
// SegmentStager unit tests (no device involved)
// ---------------------------------------------------------------------------

TEST(SegmentStager, StageCoalesceReadThroughAndDrop) {
  SegmentStager stager(small_segment(), /*counter_mode=*/false);
  EXPECT_TRUE(stager.empty());
  EXPECT_FALSE(stager.stage(10, test_page(10, 0)));
  EXPECT_FALSE(stager.stage(20, test_page(20, 0)));
  EXPECT_EQ(stager.live_pages(), 2u);
  EXPECT_TRUE(stager.pending(10));
  EXPECT_FALSE(stager.pending(11));

  Page out = make_page();
  ASSERT_TRUE(stager.read_pending(10, out));
  EXPECT_EQ(out, test_page(10, 0));

  // Re-staging the same LBA coalesces in place: live count unchanged, the
  // newer bytes win.
  EXPECT_FALSE(stager.stage(10, test_page(10, 1)));
  EXPECT_EQ(stager.live_pages(), 2u);
  ASSERT_TRUE(stager.read_pending(10, out));
  EXPECT_EQ(out, test_page(10, 1));

  stager.drop(20);
  EXPECT_FALSE(stager.pending(20));
  EXPECT_EQ(stager.live_pages(), 1u);
  EXPECT_FALSE(stager.read_pending(20, out));
}

TEST(SegmentStager, FullAtConfiguredSegmentPages) {
  SegmentStager stager(small_segment(), /*counter_mode=*/false);
  EXPECT_FALSE(stager.stage(1, test_page(1)));
  EXPECT_FALSE(stager.stage(2, test_page(2)));
  EXPECT_FALSE(stager.stage(3, test_page(3)));
  EXPECT_FALSE(stager.full());
  // The 4th distinct page fills the segment: stage() demands a seal.
  EXPECT_TRUE(stager.stage(4, test_page(4)));
  EXPECT_TRUE(stager.full());
}

TEST(SegmentStager, SealBatchIsHeaderFirstAndHeaderRoundTrips) {
  SegmentStager stager(small_segment(), /*counter_mode=*/false);
  stager.set_open_segment_id(7);
  stager.stage(10, test_page(10));
  stager.stage(30, test_page(30));
  stager.stage(20, test_page(20));
  stager.drop(30);

  Page header = make_page();
  const std::vector<PageWrite> batch = stager.build_seal(&header);
  ASSERT_EQ(batch.size(), 3u);  // header + 2 live payloads
  // Header page FIRST, at the ring slot for id 7 (base 100, 4 slots).
  EXPECT_EQ(batch.front().page, stager.header_slot());
  EXPECT_EQ(stager.header_slot(), 100u + 7u % 4u);

  std::uint64_t id = 0;
  std::vector<Lba> lbas;
  std::uint64_t payload_crc = 0;
  ASSERT_TRUE(SegmentStager::parse_header(header, &id, &lbas, &payload_crc));
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(lbas, stager.live_lbas());
  ASSERT_EQ(lbas.size(), 2u);

  // The advertised payload CRC matches the page_hash chain over the payload
  // bytes in batch order — recovery recomputes exactly this.
  std::uint64_t crc = kern::kPageHashSeed;
  for (std::size_t i = 1; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].page, lbas[i - 1]);
    crc = kern::page_hash(crc, batch[i].data);
  }
  EXPECT_EQ(crc, payload_crc);

  stager.finish_seal();
  EXPECT_TRUE(stager.empty());
  EXPECT_EQ(stager.open_segment_id(), 8u);
  EXPECT_EQ(stager.header_slot(), 100u + 8u % 4u);
}

TEST(SegmentStager, ParseHeaderRejectsTornForeignAndBlankPages) {
  SegmentStager stager(small_segment(), /*counter_mode=*/false);
  stager.stage(10, test_page(10));
  stager.stage(20, test_page(20));
  Page header = make_page();
  stager.build_seal(&header);

  std::uint64_t id = 0;
  std::vector<Lba> lbas;
  std::uint64_t crc = 0;
  ASSERT_TRUE(SegmentStager::parse_header(header, &id, &lbas, &crc));

  // A blank (never-written ring slot) page is not a header.
  const Page blank = make_page();
  EXPECT_FALSE(SegmentStager::parse_header(blank, &id, &lbas, &crc));

  // Any torn byte — in the fixed fields or the entry list — breaks the
  // header CRC.
  Page torn = header;
  torn[9] ^= 0x01;  // segment id field
  EXPECT_FALSE(SegmentStager::parse_header(torn, &id, &lbas, &crc));
  torn = header;
  torn[SegmentStager::kHeaderFixedBytes + 3] ^= 0x80;  // first LBA entry
  EXPECT_FALSE(SegmentStager::parse_header(torn, &id, &lbas, &crc));

  // A foreign page with the wrong magic fails immediately.
  Page foreign = header;
  foreign[0] ^= 0xff;
  EXPECT_FALSE(SegmentStager::parse_header(foreign, &id, &lbas, &crc));
}

TEST(SegmentStager, ParseHeaderRejectsTheOldFormatMagic) {
  // A KDDSEG01 header (FNV-1a CRCs) must never be accepted as a current
  // one: swap in the old magic and re-seal the header CRC so that the magic
  // is the only thing wrong with it.
  SegmentStager stager(small_segment(), /*counter_mode=*/false);
  stager.stage(10, test_page(10));
  Page header = make_page();
  stager.build_seal(&header);
  ASSERT_TRUE(SegmentStager::parse_header(header, nullptr, nullptr, nullptr));

  constexpr std::uint64_t kOldMagic = 0x4b44445345473031ull;  // "KDDSEG01"
  ASSERT_NE(kOldMagic, SegmentStager::kMagic);
  std::memcpy(header.data(), &kOldMagic, sizeof kOldMagic);
  std::uint32_t count = 0;
  std::memcpy(&count, header.data() + 16, sizeof count);
  std::uint64_t crc = kern::page_hash(kern::kPageHashSeed, {header.data(), 32});
  crc = kern::page_hash(crc, {header.data() + SegmentStager::kHeaderFixedBytes,
                              8ull * count});
  std::memcpy(header.data() + 32, &crc, sizeof crc);
  EXPECT_FALSE(SegmentStager::parse_header(header, nullptr, nullptr, nullptr));
}

TEST(SegmentStager, CounterModeStagesAddressesWithoutBytes) {
  SegmentStager stager(small_segment(), /*counter_mode=*/true);
  EXPECT_FALSE(stager.stage(5, {}));
  EXPECT_FALSE(stager.stage(6, {}));
  EXPECT_TRUE(stager.pending(5));
  Page out = make_page();
  EXPECT_FALSE(stager.read_pending(5, out));  // no bytes to read through
  Page header = make_page();
  const std::vector<PageWrite> batch = stager.build_seal(&header);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch[1].data.empty());
  std::uint64_t id = 0;
  std::vector<Lba> lbas;
  std::uint64_t crc = 0;
  EXPECT_TRUE(SegmentStager::parse_header(header, &id, &lbas, &crc));
  EXPECT_EQ(lbas.size(), 2u);
}

TEST(SegmentStager, AbandonDiscardsWithoutAdvancingId) {
  SegmentStager stager(small_segment(), /*counter_mode=*/false);
  stager.set_open_segment_id(3);
  stager.stage(10, test_page(10));
  stager.stage(20, test_page(20));
  stager.abandon();
  EXPECT_TRUE(stager.empty());
  EXPECT_FALSE(stager.pending(10));
  EXPECT_EQ(stager.open_segment_id(), 3u);
}

// ---------------------------------------------------------------------------
// Staged cache end-to-end (prototype mode)
// ---------------------------------------------------------------------------

RaidGeometry small_geo() {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 256;
  return geo;
}

PolicyConfig staged_config() {
  PolicyConfig cfg;
  cfg.ssd_pages = 256;
  cfg.ways = 8;
  cfg.segment_staging = true;
  cfg.segment_pages = 16;
  return cfg;
}

SsdConfig small_ssd() {
  SsdConfig cfg;
  cfg.logical_pages = 256;
  cfg.pages_per_block = 16;
  return cfg;
}

TEST(SegmentCache, ReadYourWritesWithStagingEnabled) {
  const RaidGeometry geo = small_geo();
  RaidArray array(geo);
  SsdModel ssd(small_ssd());
  KddCache kdd(staged_config(), &array, &ssd);
  const ContentGenerator gen(21);
  ReferenceModel model;
  Rng rng(22);
  Page buf = make_page();
  for (int i = 0; i < 1500; ++i) {
    const Lba lba = rng.next_below(200);
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

  const SegmentStats& ss = kdd.cache_ssd().segment_stats();
  EXPECT_GT(ss.seals, 0u);
  EXPECT_GT(ss.pages_sealed, 0u);
  EXPECT_EQ(ss.lost_pages, 0u);
  // The whole point: far fewer SSD write commands than committed pages.
  EXPECT_LT(kdd.cache_ssd().write_ops() * 4, kdd.cache_ssd().pages_committed());
}

TEST(SegmentCache, StagingCutsWriteCommandsVsUnstagedSameTrace) {
  auto run = [](bool staged) {
    const RaidGeometry geo = small_geo();
    RaidArray array(geo);
    SsdModel ssd(small_ssd());
    PolicyConfig cfg = staged_config();
    cfg.segment_staging = staged;
    KddCache kdd(cfg, &array, &ssd);
    const ContentGenerator gen(31);
    Rng rng(32);
    for (int i = 0; i < 1200; ++i) {
      const Lba lba = rng.next_below(160);
      const Page data = gen.base_page(lba);
      EXPECT_EQ(kdd.write(lba, data, nullptr), IoStatus::kOk);
    }
    kdd.flush(nullptr);
    struct {
      std::uint64_t ops, pages;
      SsdWearStats wear;
    } r{kdd.cache_ssd().write_ops(), kdd.cache_ssd().pages_committed(), ssd.wear()};
    return r;
  };
  const auto staged = run(true);
  const auto unstaged = run(false);
  // Both commit the same page stream; the staged run batches them into a
  // handful of sequential commands instead of one random command per page.
  EXPECT_EQ(staged.pages, unstaged.pages);
  EXPECT_LT(staged.ops * 4, unstaged.ops);
  EXPECT_GT(staged.wear.host_write_ops_seq, 0u);
  EXPECT_EQ(unstaged.wear.host_write_ops_seq, 0u);
  EXPECT_LT(staged.wear.host_write_ops_rand, unstaged.wear.host_write_ops_rand);
}

// ---------------------------------------------------------------------------
// Crash recovery: accept / discard exactness for the one in-flight segment
// ---------------------------------------------------------------------------

struct RecoveryRig {
  RaidGeometry geo = small_geo();
  std::unique_ptr<RaidArray> array;
  std::unique_ptr<SsdModel> ssd;
  NvramState nvram;
  std::unique_ptr<KddCache> kdd;

  explicit RecoveryRig(const PolicyConfig& cfg)
      : nvram(cfg.staging_buffer_bytes, cfg.metadata_buffer_entries) {
    array = std::make_unique<RaidArray>(geo);
    ssd = std::make_unique<SsdModel>(small_ssd());
    kdd = std::make_unique<KddCache>(cfg, array.get(), ssd.get(), &nvram);
  }
  void reopen(const PolicyConfig& cfg) {
    kdd = std::make_unique<KddCache>(cfg, array.get(), ssd.get(), &nvram,
                                     /*recover=*/true);
  }
};

TEST(SegmentRecovery, TornFlushDiscardsExactlyTheListedPages) {
  const PolicyConfig cfg = staged_config();
  RecoveryRig rig(cfg);
  const ContentGenerator gen(41);
  ReferenceModel model;

  // A settled base state, fully sealed.
  for (Lba lba = 0; lba < 24; ++lba) {
    const Page data = gen.base_page(lba);
    ASSERT_EQ(rig.kdd->write(lba, data, nullptr), IoStatus::kOk);
    model.write(lba, data);
  }
  rig.kdd->flush(nullptr);
  const std::uint64_t seq_before = rig.nvram.segment_seq;

  // Stage a few more commits (RAM only — no media writes yet), then tear the
  // seal mid-vector: the header passes, the first payload page is torn.
  Rng rng(42);
  for (Lba lba = 30; lba < 35; ++lba) {
    const Page data = gen.base_page(lba);
    ASSERT_EQ(rig.kdd->write(lba, data, nullptr), IoStatus::kOk);
    model.write(lba, data);
  }
  SegmentStager* stager = rig.kdd->cache_ssd().stager();
  ASSERT_NE(stager, nullptr);
  const std::size_t staged_pages = stager->live_pages();
  ASSERT_GT(staged_pages, 0u);
  rig.kdd->cache_ssd().faults()->arm_power_cut(1);
  EXPECT_NE(rig.kdd->force_seal(nullptr), IoStatus::kOk);
  EXPECT_EQ(rig.kdd->cache_ssd().faults()->fault_counters().torn_writes, 1u);
  EXPECT_FALSE(rig.kdd->cache_ssd().faults()->powered());
  EXPECT_EQ(rig.nvram.segment_seq, seq_before);  // seal never completed

  // Power-cycle: destroy the cache (its teardown I/O is rejected by the dead
  // rail, exactly like a real cut) and recover a fresh instance.
  rig.reopen(cfg);
  const SegmentStats& ss = rig.kdd->cache_ssd().segment_stats();
  EXPECT_EQ(ss.discarded_segments, 1u);
  EXPECT_EQ(ss.discarded_pages, staged_pages);
  EXPECT_EQ(ss.recovered_segments, 0u);

  // Acked data survives: every page reads back from the recovered stack
  // (discarded cache pages fall back to the always-current RAID copy).
  Page buf = make_page();
  for (Lba lba = 0; lba < 35; ++lba) {
    if (!model.contains(lba)) continue;
    ASSERT_EQ(rig.kdd->read(lba, buf, nullptr), IoStatus::kOk) << "lba " << lba;
    EXPECT_EQ(buf, model.read(lba)) << "lba " << lba;
  }
  rig.kdd->flush(nullptr);
  EXPECT_TRUE(rig.array->scrub().empty());
}

TEST(SegmentRecovery, CompletedFlushWithLaggingNvramSeqIsAccepted) {
  const PolicyConfig cfg = staged_config();
  RecoveryRig rig(cfg);
  const ContentGenerator gen(51);
  ReferenceModel model;
  for (Lba lba = 0; lba < 40; ++lba) {
    const Page data = gen.base_page(lba);
    ASSERT_EQ(rig.kdd->write(lba, data, nullptr), IoStatus::kOk);
    model.write(lba, data);
  }
  rig.kdd->flush(nullptr);
  rig.kdd.reset();  // clean shutdown: every segment sealed, media complete
  const std::uint64_t seq_after = rig.nvram.segment_seq;
  ASSERT_GT(seq_after, 0u);

  // Model NVRAM lagging the media (the seq bump is not ordered against the
  // segment write): recovery re-examines the last sealed segment, proves it
  // fully persisted via the payload CRC, and accepts it.
  rig.nvram.segment_seq = seq_after - 1;
  rig.reopen(cfg);
  const SegmentStats& ss = rig.kdd->cache_ssd().segment_stats();
  EXPECT_EQ(ss.recovered_segments, 1u);
  EXPECT_EQ(ss.discarded_segments, 0u);
  EXPECT_EQ(rig.nvram.segment_seq, seq_after);  // epoch re-advanced

  Page buf = make_page();
  for (Lba lba = 0; lba < 40; ++lba) {
    ASSERT_EQ(rig.kdd->read(lba, buf, nullptr), IoStatus::kOk) << "lba " << lba;
    EXPECT_EQ(buf, model.read(lba)) << "lba " << lba;
  }
  rig.kdd->flush(nullptr);
  EXPECT_TRUE(rig.array->scrub().empty());
}

}  // namespace
}  // namespace kdd
