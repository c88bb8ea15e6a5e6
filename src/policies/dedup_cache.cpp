#include "policies/dedup_cache.hpp"

#include "common/check.hpp"

namespace kdd {

DedupCachePolicy::DedupCachePolicy(const PolicyConfig& config, RaidArray* array,
                                   SsdModel* ssd)
    : config_(config),
      ssd_(0, plan_cache_layout(config, /*needs_metadata=*/false).cache_pages, ssd),
      raid_(array) {
  free_slots_.reserve(ssd_.cache_pages());
  for (std::uint64_t i = ssd_.cache_pages(); i-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
}

DedupCachePolicy::Fingerprint DedupCachePolicy::fingerprint(
    std::span<const std::uint8_t> data) {
  Fingerprint f{1469598103934665603ull, 0x2d358dccaa6c78a5ull};
  for (const std::uint8_t b : data) {
    f.lo = (f.lo ^ b) * 1099511628211ull;
    f.hi = (f.hi ^ b) * 0x100000001b3ull ^ (f.hi >> 29);
  }
  return f;
}

void DedupCachePolicy::lru_touch(Lba lba) {
  auto& entry = lba_index_.at(lba);
  lru_.erase(entry.lru_pos);
  lru_.push_front(lba);
  entry.lru_pos = lru_.begin();
}

void DedupCachePolicy::unmap(Lba lba) {
  const auto it = lba_index_.find(lba);
  if (it == lba_index_.end()) return;
  const auto fp_it = fp_index_.find(it->second.fp);
  KDD_CHECK(fp_it != fp_index_.end() && fp_it->second.refs > 0);
  if (--fp_it->second.refs == 0) {
    ssd_.trim_data(fp_it->second.slot);
    slot_to_fp_.erase(fp_it->second.slot);
    free_slots_.push_back(fp_it->second.slot);
    fp_index_.erase(fp_it);
  }
  lru_.erase(it->second.lru_pos);
  lba_index_.erase(it);
}

void DedupCachePolicy::evict_lru() {
  KDD_CHECK(!lru_.empty());
  unmap(lru_.back());
}

void DedupCachePolicy::insert(Lba lba, std::span<const std::uint8_t> data,
                              SsdWriteKind kind, IoPlan* plan) {
  KDD_CHECK(!data.empty());  // dedup requires real contents
  unmap(lba);
  // One LBA mapping per slot at worst, so bounding mappings by the slot pool
  // guarantees a free slot exists whenever a new fingerprint shows up.
  while (lba_index_.size() >= ssd_.cache_pages()) evict_lru();

  const Fingerprint fp = fingerprint(data);
  auto [fp_it, inserted] = fp_index_.try_emplace(fp);
  if (inserted) {
    KDD_CHECK(!free_slots_.empty());
    fp_it->second.slot = free_slots_.back();
    free_slots_.pop_back();
    slot_to_fp_[fp_it->second.slot] = fp;
    ssd_.write_data(fp_it->second.slot, kind, data, plan);
  } else {
    ++dedup_hits_;  // contents already resident: no flash program needed
  }
  ++fp_it->second.refs;
  lru_.push_front(lba);
  lba_index_[lba] = {fp, lru_.begin()};
}

IoStatus DedupCachePolicy::read(Lba lba, std::span<std::uint8_t> out, IoPlan* plan) {
  const auto it = lba_index_.find(lba);
  if (it != lba_index_.end()) {
    ++stats_.read_hits;
    lru_touch(lba);
    return ssd_.read_data(fp_index_.at(it->second.fp).slot, out, plan);
  }
  ++stats_.read_misses;
  const IoStatus st = raid_.read_page(lba, out, plan);
  if (st != IoStatus::kOk) return st;
  insert(lba, out, SsdWriteKind::kReadFill, plan);
  return IoStatus::kOk;
}

IoStatus DedupCachePolicy::write(Lba lba, std::span<const std::uint8_t> data,
                                 IoPlan* plan) {
  if (lba_index_.contains(lba)) {
    ++stats_.write_hits;
  } else {
    ++stats_.write_misses;
  }
  // Write-through; the array write and the cache insert overlap.
  PlanFork<2> fork(plan);
  const IoStatus st = raid_.write_page(lba, data, fork.lane(0));
  if (st != IoStatus::kOk) return st;
  insert(lba, data, SsdWriteKind::kWriteUpdate, fork.lane(1));
  return IoStatus::kOk;
}

CacheStats DedupCachePolicy::stats() const {
  CacheStats s = stats_;
  ssd_.export_stats(s);
  s.disk_reads = raid_.disk_reads();
  s.disk_writes = raid_.disk_writes();
  return s;
}

}  // namespace kdd
