#include "cache/sets.hpp"

#include "common/check.hpp"

namespace kdd {

CacheSets::CacheSets(std::uint64_t pages, std::uint32_t ways) : ways_(ways) {
  KDD_CHECK(ways_ > 0);
  KDD_CHECK(pages >= ways_);
  num_sets_ = static_cast<std::uint32_t>(pages / ways_);
  KDD_CHECK(num_sets_ > 0);
  slots_.resize(static_cast<std::size_t>(num_sets_) * ways_);
  lru_head_.assign(num_sets_, kNone);
  lru_tail_.assign(num_sets_, kNone);
  free_count_.assign(num_sets_, ways_);
  dez_count_.assign(num_sets_, 0);
}

void CacheSets::set_state(std::uint32_t idx, PageState next) {
  CacheSlot& s = slots_[idx];
  const PageState prev = s.state;
  if (prev == next) return;
  const std::uint32_t set = set_of(idx);
  if (prev == PageState::kFree) {
    KDD_DCHECK(free_count_[set] > 0);
    --free_count_[set];
  }
  if (next == PageState::kFree) ++free_count_[set];
  if (prev == PageState::kDelta) {
    KDD_DCHECK(dez_count_[set] > 0);
    --dez_count_[set];
  }
  if (next == PageState::kDelta) ++dez_count_[set];
  if (prev == PageState::kClean) lru_remove(idx);
  if (next == PageState::kOld) s.referenced = false;
  s.state = next;
  if (next == PageState::kClean) lru_insert_head(idx);
}

std::uint32_t CacheSets::find_data(std::uint32_t set, Lba lba) const {
  const std::uint32_t base = set * ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    const CacheSlot& s = slots_[base + w];
    if (s.lba != lba) continue;
    if (s.state == PageState::kClean || s.state == PageState::kOld ||
        s.state == PageState::kNewVersion) {
      return base + w;
    }
  }
  return kNone;
}

std::uint32_t CacheSets::find_state(std::uint32_t set, Lba lba, PageState state) const {
  const std::uint32_t base = set * ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    const CacheSlot& s = slots_[base + w];
    if (s.lba == lba && s.state == state) return base + w;
  }
  return kNone;
}

std::uint32_t CacheSets::find_free(std::uint32_t set) const {
  if (free_count_[set] == 0) return kNone;
  const std::uint32_t base = set * ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    if (slots_[base + w].state == PageState::kFree) return base + w;
  }
  return kNone;
}

void CacheSets::lru_insert_head(std::uint32_t idx) {
  const std::uint32_t set = set_of(idx);
  CacheSlot& s = slots_[idx];
  s.lru_prev = kNone;
  s.lru_next = lru_head_[set];
  if (lru_head_[set] != kNone) slots_[lru_head_[set]].lru_prev = idx;
  lru_head_[set] = idx;
  if (lru_tail_[set] == kNone) lru_tail_[set] = idx;
}

void CacheSets::lru_remove(std::uint32_t idx) {
  const std::uint32_t set = set_of(idx);
  CacheSlot& s = slots_[idx];
  if (s.lru_prev != kNone) {
    slots_[s.lru_prev].lru_next = s.lru_next;
  } else {
    lru_head_[set] = s.lru_next;
  }
  if (s.lru_next != kNone) {
    slots_[s.lru_next].lru_prev = s.lru_prev;
  } else {
    lru_tail_[set] = s.lru_prev;
  }
  s.lru_prev = s.lru_next = kNone;
}

void CacheSets::lru_touch(std::uint32_t idx) {
  KDD_DCHECK(slots_[idx].state == PageState::kClean);
  lru_remove(idx);
  lru_insert_head(idx);
}

void CacheSets::reset_slot(std::uint32_t idx) {
  set_state(idx, PageState::kFree);
  CacheSlot& s = slots_[idx];
  s.referenced = false;
  s.lba = kInvalidLba;
  s.dez_idx = kNone;
  s.dez_off = s.dez_len = 0;
  s.valid_count = 0;
  s.partner = kNone;
  // Note: home_log_page is intentionally preserved — the persistent free
  // entry for this slot stays live in the metadata log until GC rewrites or
  // supersedes it.
}

std::uint64_t CacheSets::count_state(PageState state) const {
  std::uint64_t n = 0;
  for (const CacheSlot& s : slots_) {
    if (s.state == state) ++n;
  }
  return n;
}

}  // namespace kdd
