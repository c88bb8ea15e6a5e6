#include "policies/leavo.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/check.hpp"

namespace kdd {

namespace {

CacheLayoutPlan leavo_layout(const PolicyConfig& config) {
  return plan_cache_layout(config, /*needs_metadata=*/true);
}

}  // namespace

LeavOPolicy::LeavOPolicy(const PolicyConfig& config, const RaidGeometry& geo)
    : BlockCacheBase(config, geo, leavo_layout(config).metadata_pages,
                     leavo_layout(config).cache_pages),
      meta_buffer_(config.metadata_buffer_entries) {}

LeavOPolicy::LeavOPolicy(const PolicyConfig& config, RaidArray* array, SsdModel* ssd)
    : BlockCacheBase(config, array, ssd, leavo_layout(config).metadata_pages,
                     leavo_layout(config).cache_pages),
      meta_buffer_(config.metadata_buffer_entries) {}

void LeavOPolicy::note_metadata(std::uint32_t idx, IoPlan* plan) {
  MetadataEntry e;
  e.daz_idx = idx;
  e.lba_raid = sets_.slot(idx).lba;
  e.state = sets_.slot(idx).state;
  meta_buffer_.put(e);
  if (meta_buffer_.full()) flush_metadata(plan);
}

void LeavOPolicy::flush_metadata(IoPlan* plan) {
  if (meta_buffer_.empty()) return;
  const std::vector<MetadataEntry> entries = meta_buffer_.drain();
  // Direct-mapped table: slot idx lives in table page idx / entries-per-page.
  // One write per *distinct* dirty table page — with scattered slots this
  // approaches one page write per entry (LeavO's metadata weakness).
  std::unordered_set<std::uint64_t> dirty_pages;
  for (const MetadataEntry& e : entries) {
    dirty_pages.insert(e.daz_idx / kEntriesPerTablePage);
  }
  for (std::uint64_t page : dirty_pages) {
    KDD_CHECK(page < ssd_.metadata_pages());
    ssd_.write_metadata(page, {}, plan);
  }
}

void LeavOPolicy::on_evict_slot(std::uint32_t idx) {
  // Persist the free transition so the on-SSD table stays authoritative.
  MetadataEntry e;
  e.daz_idx = idx;
  e.lba_raid = kInvalidLba;
  e.state = PageState::kFree;
  meta_buffer_.put(e);
  if (meta_buffer_.full()) flush_metadata(nullptr);
}

std::uint32_t LeavOPolicy::take_slot(std::uint32_t set) {
  std::uint32_t idx = sets_.find_free(set);
  if (idx == CacheSets::kNone) idx = evict_lru_clean(set);
  return idx;
}

IoStatus LeavOPolicy::read(Lba lba, std::span<std::uint8_t> out, IoPlan* plan) {
  const std::uint32_t set = set_for(lba);
  const std::uint32_t idx = sets_.find_data(set, lba);
  if (idx != CacheSets::kNone) {
    ++stats_.read_hits;
    if (sets_.slot(idx).state == PageState::kClean) sets_.lru_touch(idx);
    return ssd_.read_data(idx, out, plan);
  }
  ++stats_.read_misses;
  const IoStatus st = raid_.read_page(lba, out, plan);
  if (st != IoStatus::kOk) return st;
  const std::uint32_t slot = take_slot(set);
  if (slot == CacheSets::kNone) return IoStatus::kOk;  // set pinned solid: bypass
  ssd_.write_data(slot, SsdWriteKind::kReadFill, out, plan);
  sets_.slot(slot).lba = lba;
  sets_.set_state(slot, PageState::kClean);
  note_metadata(slot, plan);
  return IoStatus::kOk;
}

IoStatus LeavOPolicy::write(Lba lba, std::span<const std::uint8_t> data, IoPlan* plan) {
  const std::uint32_t set = set_for(lba);
  const std::uint32_t idx = sets_.find_data(set, lba);
  // The array write (lane 0) and the cache write (lane 1) are independent:
  // they overlap. Metadata that maps a pinned pair follows the cache write
  // in its lane; a clean mapping claims the array write too, so it waits
  // for the join.
  PlanFork<2> fork(plan);

  if (idx == CacheSets::kNone) {
    // Write miss: conventional parity update + allocation.
    ++stats_.write_misses;
    const IoStatus st = raid_.write_page(lba, data, fork.lane(0));
    if (st != IoStatus::kOk) return st;
    const std::uint32_t slot = take_slot(set);
    if (slot == CacheSets::kNone) {
      ++stats_.write_bypasses;
      --stats_.write_misses;
      return IoStatus::kOk;
    }
    ssd_.write_data(slot, SsdWriteKind::kWriteAlloc, data, fork.lane(1));
    sets_.slot(slot).lba = lba;
    sets_.set_state(slot, PageState::kClean);
    fork.join();
    note_metadata(slot, plan);
    return IoStatus::kOk;
  }

  ++stats_.write_hits;
  CacheSets::CacheSlot& slot = sets_.slot(idx);

  if (slot.state == PageState::kNewVersion) {
    // Already a dirty pair: overwrite the new version; the pair's mapping is
    // unchanged, so no metadata update is needed.
    ssd_.write_data(idx, SsdWriteKind::kWriteUpdate, data, fork.lane(1));
    const IoStatus st = raid_.write_page_nopar(lba, data, fork.lane(0));
    fork.join();
    maybe_clean(plan);
    return st;
  }

  KDD_DCHECK(slot.state == PageState::kClean);
  // Pin idx first so the partner allocation cannot evict it (it would be an
  // LRU candidate otherwise).
  sets_.set_state(idx, PageState::kOldVersion);
  const std::uint32_t partner = take_slot(set);
  if (partner == CacheSets::kNone) {
    // No room for a second version: degrade to write-through for this write.
    sets_.set_state(idx, PageState::kClean);
    ssd_.write_data(idx, SsdWriteKind::kWriteUpdate, data, fork.lane(1));
    sets_.lru_touch(idx);
    return raid_.write_page(lba, data, fork.lane(0));
  }
  // Pin the pair: idx keeps the old version, partner takes the new one.
  ssd_.write_data(partner, SsdWriteKind::kWriteUpdate, data, fork.lane(1));
  sets_.slot(partner).lba = lba;
  sets_.set_state(partner, PageState::kNewVersion);
  sets_.slot(idx).partner = partner;
  sets_.slot(partner).partner = idx;
  pinned_pages_ += 2;
  ++dirty_groups_[raid_.layout().group_of(lba)];
  note_metadata(idx, fork.lane(1));
  note_metadata(partner, fork.lane(1));
  const IoStatus st = raid_.write_page_nopar(lba, data, fork.lane(0));
  fork.join();
  maybe_clean(plan);
  return st;
}

void LeavOPolicy::maybe_clean(IoPlan* plan) {
  const auto high = static_cast<std::uint64_t>(
      config_.clean_high_watermark * static_cast<double>(sets_.pages()));
  if (pinned_pages_ <= high) return;
  IoPlan* clean_plan = bg_or(plan);  // cleaning runs in the background thread
  const auto low = static_cast<std::uint64_t>(
      config_.clean_low_watermark * static_cast<double>(sets_.pages()));
  while (pinned_pages_ > low && !dirty_groups_.empty()) {
    clean_group(dirty_groups_.begin()->first, clean_plan);
  }
  ++stats_.cleanings;
}

void LeavOPolicy::clean_group(GroupId g, IoPlan* plan) {
  const std::uint32_t dd = raid_.layout().geometry().data_disks();
  const std::uint32_t set = set_for(raid_.layout().group_member(g, 0));
  const std::uint32_t base = set * sets_.ways();

  // Collect the dirty pairs of this group (new-version slots).
  std::vector<std::uint32_t> new_slots;
  for (std::uint32_t w = 0; w < sets_.ways(); ++w) {
    const CacheSets::CacheSlot& s = sets_.slot(base + w);
    if (s.state == PageState::kNewVersion &&
        raid_.layout().group_of(s.lba) == g) {
      new_slots.push_back(base + w);
    }
  }
  KDD_CHECK(!new_slots.empty());

  // Reconstruct-write only when every data member of the stripe is cached.
  bool all_cached = true;
  std::vector<std::uint32_t> member_slots(dd, CacheSets::kNone);
  for (std::uint32_t k = 0; k < dd; ++k) {
    const Lba member = raid_.layout().group_member(g, k);
    member_slots[k] = sets_.find_data(set, member);
    if (member_slots[k] == CacheSets::kNone) {
      all_cached = false;
      break;
    }
  }

  const bool real = ssd_.real();
  if (all_cached) {
    std::vector<Page> data(dd);
    std::vector<const Page*> ptrs(dd, nullptr);
    for (std::uint32_t k = 0; k < dd; ++k) {
      if (real) data[k] = make_page();
      ssd_.read_data(member_slots[k], real ? std::span<std::uint8_t>(data[k])
                                           : std::span<std::uint8_t>{},
                     plan);
      ptrs[k] = &data[k];
    }
    const IoStatus st = raid_.update_parity_reconstruct_cached(g, ptrs, plan);
    KDD_CHECK(st == IoStatus::kOk);
  } else {
    std::vector<Page> diffs(new_slots.size());
    std::vector<GroupDelta> deltas;
    deltas.reserve(new_slots.size());
    for (std::size_t i = 0; i < new_slots.size(); ++i) {
      const CacheSets::CacheSlot& ns = sets_.slot(new_slots[i]);
      if (real) {
        Page old_v = make_page();
        Page new_v = make_page();
        ssd_.read_data(ns.partner, old_v, plan);
        ssd_.read_data(new_slots[i], new_v, plan);
        diffs[i] = xor_pages(old_v, new_v);
      } else {
        ssd_.read_data(ns.partner, {}, plan);
        ssd_.read_data(new_slots[i], {}, plan);
      }
      deltas.push_back({raid_.layout().index_in_group(ns.lba), &diffs[i]});
    }
    const IoStatus st = raid_.update_parity_rmw(g, deltas, plan);
    KDD_CHECK(st == IoStatus::kOk);
  }

  // Reclaim the pair outright (matching the paper's characterisation that
  // LeavO's redundant versions depress its hit ratio: cleaned blocks leave
  // the cache and must be re-fetched on the next miss).
  for (std::uint32_t ns : new_slots) {
    const std::uint32_t old_slot = sets_.slot(ns).partner;
    KDD_CHECK(old_slot != CacheSets::kNone);
    for (const std::uint32_t victim : {old_slot, ns}) {
      ssd_.trim_data(victim);
      MetadataEntry free_entry;
      free_entry.daz_idx = victim;
      free_entry.state = PageState::kFree;
      meta_buffer_.put(free_entry);
      sets_.reset_slot(victim);
    }
    pinned_pages_ -= 2;
  }
  stats_.groups_cleaned += 1;
  dirty_groups_.erase(g);
  if (meta_buffer_.full()) flush_metadata(plan);
}

void LeavOPolicy::flush(IoPlan* plan) {
  while (!dirty_groups_.empty()) clean_group(dirty_groups_.begin()->first, plan);
  flush_metadata(plan);
}

void LeavOPolicy::on_idle(IoPlan* plan) {
  while (!dirty_groups_.empty()) clean_group(dirty_groups_.begin()->first, plan);
}

}  // namespace kdd
