#include <gtest/gtest.h>

#include "cache/backend.hpp"
#include "cache/metadata_log.hpp"
#include "cache/nvram.hpp"
#include "cache/sets.hpp"
#include "common/rng.hpp"

namespace kdd {
namespace {

TEST(CacheSets, InitialStateAllFree) {
  CacheSets sets(64, 8);
  EXPECT_EQ(sets.num_sets(), 8u);
  EXPECT_EQ(sets.pages(), 64u);
  for (std::uint32_t s = 0; s < sets.num_sets(); ++s) {
    EXPECT_EQ(sets.free_count(s), 8u);
    EXPECT_EQ(sets.dez_count(s), 0u);
    EXPECT_EQ(sets.lru_tail(s), CacheSets::kNone);
  }
  EXPECT_EQ(sets.count_state(PageState::kFree), 64u);
}

TEST(CacheSets, StateTransitionsMaintainCounters) {
  CacheSets sets(16, 8);
  sets.set_state(0, PageState::kClean);
  EXPECT_EQ(sets.free_count(0), 7u);
  sets.set_state(0, PageState::kOld);
  EXPECT_EQ(sets.free_count(0), 7u);
  sets.set_state(1, PageState::kDelta);
  EXPECT_EQ(sets.dez_count(0), 1u);
  EXPECT_EQ(sets.free_count(0), 6u);
  sets.reset_slot(1);
  EXPECT_EQ(sets.dez_count(0), 0u);
  EXPECT_EQ(sets.free_count(0), 7u);
  sets.reset_slot(0);
  EXPECT_EQ(sets.free_count(0), 8u);
}

TEST(CacheSets, LruEvictionOrder) {
  CacheSets sets(8, 8);
  for (std::uint32_t i = 0; i < 4; ++i) {
    sets.slot(i).lba = i;
    sets.set_state(i, PageState::kClean);
  }
  // LRU tail is the first-inserted slot.
  EXPECT_EQ(sets.lru_tail(0), 0u);
  sets.lru_touch(0);
  EXPECT_EQ(sets.lru_tail(0), 1u);
  sets.reset_slot(1);
  EXPECT_EQ(sets.lru_tail(0), 2u);
}

TEST(CacheSets, OnlyCleanPagesInLru) {
  CacheSets sets(8, 8);
  sets.slot(0).lba = 0;
  sets.set_state(0, PageState::kClean);
  sets.set_state(0, PageState::kOld);  // leaves the LRU
  EXPECT_EQ(sets.lru_tail(0), CacheSets::kNone);
  sets.set_state(0, PageState::kClean);  // rejoins
  EXPECT_EQ(sets.lru_tail(0), 0u);
}

TEST(CacheSets, FindVariants) {
  CacheSets sets(16, 8);
  sets.slot(3).lba = 77;
  sets.set_state(3, PageState::kOld);
  sets.slot(4).lba = 77;
  sets.set_state(4, PageState::kOldVersion);  // LeavO pinned old version
  EXPECT_EQ(sets.find_data(0, 77), 3u);       // kOldVersion is not current data
  EXPECT_EQ(sets.find_state(0, 77, PageState::kOldVersion), 4u);
  EXPECT_EQ(sets.find_data(0, 99), CacheSets::kNone);
  EXPECT_NE(sets.find_free(0), CacheSets::kNone);
  EXPECT_EQ(sets.find_free(1), 8u);
}

TEST(StagingBuffer, FifoOrderAndCoalescing) {
  StagingBuffer buf(kPageSize);
  buf.put({10, 0, 100, {}});
  buf.put({20, 1, 200, {}});
  buf.put({10, 0, 150, {}});  // coalesces: newest delta for page 10 wins
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.bytes_used(), 350u);
  const auto all = buf.take_all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].lba, 20u);  // 10 was re-staged after 20
  EXPECT_EQ(all[1].lba, 10u);
  EXPECT_EQ(all[1].packed_size, 150u);
  EXPECT_TRUE(buf.empty());
}

TEST(StagingBuffer, CapacityAccounting) {
  StagingBuffer buf(kPageSize);
  EXPECT_TRUE(buf.fits(kPageSize));
  buf.put({1, 0, 4000, {}});
  EXPECT_FALSE(buf.fits(200));
  EXPECT_TRUE(buf.fits(96));
  buf.erase(1);
  EXPECT_TRUE(buf.fits(kPageSize));
}

TEST(StagingBuffer, FindAndErase) {
  StagingBuffer buf(kPageSize);
  buf.put({5, 9, 64, {}});
  ASSERT_NE(buf.find(5), nullptr);
  EXPECT_EQ(buf.find(5)->daz_idx, 9u);
  EXPECT_EQ(buf.find(6), nullptr);
  EXPECT_TRUE(buf.erase(5));
  EXPECT_FALSE(buf.erase(5));
  EXPECT_EQ(buf.bytes_used(), 0u);
}

TEST(MetadataBuffer, CoalescesByDazSlot) {
  MetadataBuffer buf(4);
  MetadataEntry e;
  e.daz_idx = 1;
  e.state = PageState::kClean;
  buf.put(e);
  e.state = PageState::kOld;
  buf.put(e);  // overwrites
  EXPECT_EQ(buf.size(), 1u);
  EXPECT_TRUE(buf.contains(1));
  EXPECT_EQ(buf.entries()[0].state, PageState::kOld);
  e.daz_idx = 2;
  buf.put(e);
  e.daz_idx = 3;
  buf.put(e);
  e.daz_idx = 4;
  buf.put(e);
  EXPECT_TRUE(buf.full());
  EXPECT_EQ(buf.drain().size(), 4u);
  EXPECT_TRUE(buf.empty());
}

class MetadataLogTest : public ::testing::Test {
 protected:
  MetadataLogTest()
      : ssd_(/*metadata_pages=*/8, /*cache_pages=*/1024),
        nvram_(kPageSize, 16),
        sets_(1024, 16),
        log_(&ssd_, &nvram_, &sets_, 0.75) {}

  MetadataEntry entry(std::uint32_t idx, PageState state = PageState::kClean) {
    MetadataEntry e;
    e.daz_idx = idx;
    e.lba_raid = idx * 10;
    e.state = state;
    return e;
  }

  CacheSsd ssd_;
  NvramState nvram_;
  CacheSets sets_;
  MetadataLog log_;
};

TEST_F(MetadataLogTest, BufferCommitsWhenFull) {
  for (std::uint32_t i = 0; i < 15; ++i) log_.add_entry(entry(i), nullptr);
  EXPECT_EQ(log_.pages_written(), 0u);
  log_.add_entry(entry(15), nullptr);  // 16th entry fills the buffer
  EXPECT_EQ(log_.pages_written(), 1u);
  EXPECT_EQ(log_.used_pages(), 1u);
  // Homes updated on commit.
  EXPECT_EQ(sets_.slot(3).home_log_page, 0u);
}

TEST_F(MetadataLogTest, ReplayReturnsCommittedEntries) {
  for (std::uint32_t i = 0; i < 16; ++i) log_.add_entry(entry(i), nullptr);
  const auto entries = log_.replay();
  ASSERT_EQ(entries.size(), 16u);
  EXPECT_EQ(entries[7].daz_idx, 7u);
  EXPECT_EQ(entries[7].lba_raid, 70u);
}

TEST_F(MetadataLogTest, GcRewritesLiveEntriesOldestFirst) {
  // Keep slot 0's entry live forever while churning others: GC must carry it
  // forward and the used window must stay under the threshold.
  sets_.slot(0).lba = 0;
  sets_.set_state(0, PageState::kClean);
  log_.add_entry(entry(0), nullptr);
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto idx = static_cast<std::uint32_t>(1 + rng.next_below(64));
    sets_.slot(idx).lba = idx;
    if (sets_.slot(idx).state == PageState::kFree) {
      sets_.set_state(idx, PageState::kClean);
    }
    log_.add_entry(entry(idx), nullptr);
  }
  log_.commit_buffer(nullptr);
  EXPECT_GT(log_.gc_passes(), 0u);
  EXPECT_LT(log_.used_pages(), log_.partition_pages());
  // Slot 0's mapping must still be recoverable.
  bool found = false;
  for (const MetadataEntry& e : log_.replay()) {
    if (e.daz_idx == 0 && e.lba_raid == 0) found = true;
  }
  for (const MetadataEntry& e : nvram_.metadata.entries()) {
    if (e.daz_idx == 0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(MetadataLogTest, FreeEntriesAreDroppedAtGc) {
  // Slots that end free should not be carried forward forever.
  for (std::uint32_t round = 0; round < 50; ++round) {
    for (std::uint32_t i = 0; i < 32; ++i) {
      sets_.slot(i).lba = i;
      if (sets_.slot(i).state == PageState::kFree) {
        sets_.set_state(i, PageState::kClean);
      }
      log_.add_entry(entry(i), nullptr);
      sets_.reset_slot(i);
      log_.add_entry(entry(i, PageState::kFree), nullptr);
    }
  }
  log_.commit_buffer(nullptr);
  // Replay must leave every slot free (free entries win).
  std::unordered_map<std::uint32_t, MetadataEntry> latest;
  for (const MetadataEntry& e : log_.replay()) latest[e.daz_idx] = e;
  for (const MetadataEntry& e : nvram_.metadata.entries()) latest[e.daz_idx] = e;
  for (const auto& [idx, e] : latest) {
    EXPECT_EQ(e.state, PageState::kFree) << "slot " << idx;
  }
}

TEST_F(MetadataLogTest, MetadataWritesAreCounted) {
  for (std::uint32_t i = 0; i < 64; ++i) log_.add_entry(entry(i % 16), nullptr);
  CacheStats stats;
  ssd_.export_stats(stats);
  EXPECT_EQ(stats.metadata_ssd_writes(), log_.pages_written());
}

TEST(CacheSsdTest, WriteKindsTracked) {
  CacheSsd ssd(4, 64);
  ssd.write_data(0, SsdWriteKind::kReadFill, {}, nullptr);
  ssd.write_data(1, SsdWriteKind::kReadFill, {}, nullptr);
  ssd.write_data(2, SsdWriteKind::kDeltaCommit, {}, nullptr);
  ssd.write_metadata(0, {}, nullptr);
  EXPECT_EQ(ssd.total_writes(), 4u);
  CacheStats stats;
  ssd.export_stats(stats);
  EXPECT_EQ(stats.ssd_writes[static_cast<int>(SsdWriteKind::kReadFill)], 2u);
  EXPECT_EQ(stats.ssd_writes[static_cast<int>(SsdWriteKind::kDeltaCommit)], 1u);
  EXPECT_EQ(stats.metadata_ssd_writes(), 1u);
}

TEST(CacheSsdTest, PlanRecordsSsdTarget) {
  CacheSsd ssd(4, 64);
  IoPlan plan;
  ssd.read_data(10, {}, &plan);
  ssd.write_data(10, SsdWriteKind::kWriteUpdate, {}, &plan);
  ASSERT_EQ(plan.total_ops(), 2u);
  EXPECT_EQ(plan.phases()[0][0].target, DeviceOp::Target::kSsd);
  EXPECT_EQ(plan.phases()[0][0].page, 14u);  // metadata partition offset applied
}

TEST(RaidBackendTest, CounterModeCountsAndStaleness) {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 64;
  RaidBackend raid(geo);
  EXPECT_FALSE(raid.real());
  IoPlan plan;
  raid.write_page(0, {}, &plan);
  EXPECT_EQ(raid.disk_reads(), 2u);
  EXPECT_EQ(raid.disk_writes(), 2u);
  EXPECT_EQ(plan.phases().size(), 2u);

  raid.write_page_nopar(1, {}, nullptr);
  EXPECT_TRUE(raid.group_stale(raid.layout().group_of(1)));
  EXPECT_EQ(raid.stale_group_count(), 1u);
  raid.update_parity_rmw(raid.layout().group_of(1), {}, nullptr);
  EXPECT_EQ(raid.stale_group_count(), 0u);
}

// ---------------------------------------------------------------------------
// Metadata log torn-write detection (prototype mode)
// ---------------------------------------------------------------------------

class MetadataLogTornTest : public ::testing::Test {
 protected:
  static SsdConfig ssd_cfg() {
    SsdConfig cfg;
    cfg.logical_pages = 512;
    cfg.pages_per_block = 16;
    return cfg;
  }

  MetadataLogTornTest()
      : ssd_(ssd_cfg()),
        cssd_(/*metadata_pages=*/8, /*cache_pages=*/256, &ssd_),
        nvram_(kPageSize, MetadataLog::kEntriesPerPage),
        sets_(256, 16),
        log_(&cssd_, &nvram_, &sets_, 0.9) {}

  MetadataEntry entry(std::uint32_t idx) {
    MetadataEntry e;
    e.daz_idx = idx;
    e.lba_raid = idx * 7;
    e.state = PageState::kClean;
    return e;
  }

  SsdModel ssd_;
  CacheSsd cssd_;
  NvramState nvram_;
  CacheSets sets_;
  MetadataLog log_;
};

TEST_F(MetadataLogTornTest, TornTailEntriesAreDiscardedOnReplay) {
  // Commit one full log page (240 checksummed entries).
  for (std::uint32_t i = 0; i < MetadataLog::kEntriesPerPage; ++i) {
    log_.add_entry(entry(i), nullptr);
  }
  ASSERT_EQ(log_.pages_written(), 1u);

  // Simulate a torn page write: re-write the physical page with the last 40
  // entries garbled, going through the fault decorator so the stored page
  // checksum matches the torn contents (the device cannot detect a torn
  // write on its own — only the per-entry CRC can).
  Page page = make_page();
  ASSERT_EQ(cssd_.read_metadata(0, page, nullptr), IoStatus::kOk);
  const std::size_t keep = MetadataLog::kEntriesPerPage - 40;
  const std::size_t torn_at =
      MetadataLog::kPageHeaderSize + keep * MetadataEntry::kSerializedSize;
  for (std::size_t b = torn_at; b < page.size(); ++b) page[b] ^= 0x5a;
  ASSERT_EQ(cssd_.faults()->write(0, page), IoStatus::kOk);

  const std::vector<MetadataEntry> entries = log_.replay();
  EXPECT_EQ(entries.size(), keep);
  EXPECT_EQ(log_.torn_entries_dropped(), 40u);
  EXPECT_EQ(log_.bad_pages_skipped(), 0u);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].lba_raid, i * 7);  // valid prefix intact
  }
}

TEST_F(MetadataLogTornTest, NeverPersistedPageIsSkippedOnReplay) {
  for (std::uint32_t i = 0; i < MetadataLog::kEntriesPerPage; ++i) {
    log_.add_entry(entry(i), nullptr);
  }
  ASSERT_EQ(log_.pages_written(), 1u);
  // A power cut can strike after NVRAM's tail counter was bumped but before
  // the page write reached the media: the physical slot still holds an old
  // lap (here: a blank page), whose sequence number cannot match.
  ++nvram_.log_tail;
  const std::vector<MetadataEntry> entries = log_.replay();
  EXPECT_EQ(entries.size(), MetadataLog::kEntriesPerPage);  // page 0 intact
  EXPECT_EQ(log_.bad_pages_skipped(), 1u);
  --nvram_.log_tail;
}

TEST_F(MetadataLogTornTest, EntryCrcCoversPageSequence) {
  // A stale page from a previous lap of the circular log must not replay,
  // even if its own contents are internally consistent. Write seq-0's page,
  // then pretend the log has wrapped so the same physical slot is expected
  // to hold seq-8 (partition_pages == 8).
  for (std::uint32_t i = 0; i < MetadataLog::kEntriesPerPage; ++i) {
    log_.add_entry(entry(i), nullptr);
  }
  ASSERT_EQ(log_.pages_written(), 1u);
  nvram_.log_head = 8;
  nvram_.log_tail = 9;  // expect seq 8 in physical slot 0, which holds seq 0
  const std::vector<MetadataEntry> entries = log_.replay();
  EXPECT_TRUE(entries.empty());
  EXPECT_EQ(log_.bad_pages_skipped(), 1u);
}

TEST(RaidBackendTest, PartialRmwKeepsCounterStale) {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 64;
  RaidBackend raid(geo);
  raid.write_page_nopar(1, {}, nullptr);
  const GroupId g = raid.layout().group_of(1);
  raid.update_parity_rmw(g, {}, nullptr, /*finalize=*/false);
  EXPECT_TRUE(raid.group_stale(g));
  raid.update_parity_reconstruct_cached(g, std::vector<const Page*>(4, nullptr),
                                        nullptr);
  EXPECT_FALSE(raid.group_stale(g));
}

RaidGeometry backend_geo() {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 64;
  return geo;
}

TEST(RaidBackendTest, CounterModeReconstructWriteMirrorsTheArray) {
  // Counter mode decides from which row-mates are supplied (their bytes are
  // never read) and records the array's plan: [read the missing row-mate,
  // write data] -> [write parity].
  RaidBackend raid(backend_geo());
  const GroupId g = raid.layout().group_of(9);
  const std::uint32_t target = raid.layout().index_in_group(9);
  const Page placeholder;
  std::vector<const Page*> members(4, nullptr);
  for (std::uint32_t k = 0, given = 0; k < 4 && given < 2; ++k) {
    if (k == target) continue;
    members[k] = &placeholder;
    ++given;
  }
  IoPlan plan;
  ASSERT_EQ(raid.write_page(9, {}, members, &plan), IoStatus::kOk);
  EXPECT_EQ(raid.disk_reads(), 1u);
  EXPECT_EQ(raid.disk_writes(), 2u);
  ASSERT_EQ(plan.phases().size(), 2u);
  ASSERT_EQ(plan.phases()[0].size(), 2u);
  EXPECT_EQ(plan.phases()[0][0].kind, IoKind::kRead);
  EXPECT_EQ(plan.phases()[0][1].kind, IoKind::kWrite);
  EXPECT_EQ(plan.phases()[0][1].page, raid.layout().map(9).page);
  ASSERT_EQ(plan.phases()[1].size(), 1u);
  EXPECT_EQ(plan.phases()[1][0].device, raid.layout().parity_addr(g).disk);
  EXPECT_FALSE(raid.group_stale(g));

  // One supplied row-mate ties RMW's two reads: RMW it is.
  std::vector<const Page*> one(4, nullptr);
  one[target == 0 ? 1 : 0] = &placeholder;
  plan.clear();
  ASSERT_EQ(raid.write_page(9, {}, one, &plan), IoStatus::kOk);
  EXPECT_EQ(raid.disk_reads(), 3u);
  EXPECT_EQ(raid.disk_writes(), 4u);
  ASSERT_EQ(plan.phases().size(), 2u);
  EXPECT_EQ(plan.phases()[0].size(), 2u);
  EXPECT_EQ(plan.phases()[1].size(), 2u);
}

TEST(RaidBackendTest, ReconstructParityUpdateCountsItsMemberReads) {
  RaidBackend raid(backend_geo());
  const Page placeholder;
  std::vector<const Page*> members(4, &placeholder);
  members[1] = members[3] = nullptr;  // read from disk
  IoPlan plan;
  ASSERT_EQ(raid.update_parity_reconstruct_cached(2, members, &plan), IoStatus::kOk);
  EXPECT_EQ(raid.disk_reads(), 2u);
  EXPECT_EQ(raid.disk_writes(), 1u);
  ASSERT_EQ(plan.phases().size(), 2u);
  EXPECT_EQ(plan.phases()[0].size(), 2u);
  EXPECT_EQ(plan.phases()[1].size(), 1u);
}

}  // namespace
}  // namespace kdd
