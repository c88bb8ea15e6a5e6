#include "policies/write_through.hpp"

#include "common/check.hpp"

namespace kdd {

WriteThroughPolicy::WriteThroughPolicy(const PolicyConfig& config,
                                       const RaidGeometry& geo)
    : BlockCacheBase(config, geo, 0,
                     plan_cache_layout(config, /*needs_metadata=*/false).cache_pages) {}

WriteThroughPolicy::WriteThroughPolicy(const PolicyConfig& config, RaidArray* array,
                                       SsdModel* ssd)
    : BlockCacheBase(config, array, ssd, 0,
                     plan_cache_layout(config, /*needs_metadata=*/false).cache_pages) {}

std::uint32_t WriteThroughPolicy::take_slot(std::uint32_t set) {
  std::uint32_t idx = sets_.find_free(set);
  if (idx == CacheSets::kNone) idx = evict_lru_clean(set);
  return idx;
}

IoStatus WriteThroughPolicy::read(Lba lba, std::span<std::uint8_t> out, IoPlan* plan) {
  const std::uint32_t set = set_for(lba);
  const std::uint32_t idx = sets_.find_data(set, lba);
  if (idx != CacheSets::kNone) {
    ++stats_.read_hits;
    sets_.lru_touch(idx);
    return ssd_.read_data(idx, out, plan);
  }
  ++stats_.read_misses;
  const IoStatus st = raid_.read_page(lba, out, plan);
  if (st != IoStatus::kOk) return st;
  const std::uint32_t slot = take_slot(set);
  KDD_CHECK(slot != CacheSets::kNone);
  ssd_.write_data(slot, SsdWriteKind::kReadFill, out, plan);
  sets_.slot(slot).lba = lba;
  sets_.set_state(slot, PageState::kClean);
  return IoStatus::kOk;
}

IoStatus WriteThroughPolicy::write(Lba lba, std::span<const std::uint8_t> data,
                                   IoPlan* plan) {
  const std::uint32_t set = set_for(lba);
  const std::uint32_t idx = sets_.find_data(set, lba);
  // The array write and the cache write are independent: they overlap.
  PlanFork<2> fork(plan);
  const IoStatus st = raid_.write_page(lba, data, fork.lane(0));
  if (st != IoStatus::kOk) return st;
  if (idx != CacheSets::kNone) {
    ++stats_.write_hits;
    sets_.lru_touch(idx);
    ssd_.write_data(idx, SsdWriteKind::kWriteUpdate, data, fork.lane(1));
    return IoStatus::kOk;
  }
  ++stats_.write_misses;
  const std::uint32_t slot = take_slot(set);
  KDD_CHECK(slot != CacheSets::kNone);
  ssd_.write_data(slot, SsdWriteKind::kWriteAlloc, data, fork.lane(1));
  sets_.slot(slot).lba = lba;
  sets_.set_state(slot, PageState::kClean);
  return IoStatus::kOk;
}

}  // namespace kdd
