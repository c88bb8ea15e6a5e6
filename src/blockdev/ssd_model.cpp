#include "blockdev/ssd_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.hpp"

namespace kdd {

SsdModel::SsdModel(const SsdConfig& config) : config_(config) {
  KDD_CHECK(config_.logical_pages > 0);
  KDD_CHECK(config_.pages_per_block > 0);
  KDD_CHECK(config_.overprovision > 0.0);
  const double phys_pages_d =
      std::ceil(static_cast<double>(config_.logical_pages) * (1.0 + config_.overprovision));
  num_blocks_ = (static_cast<std::uint64_t>(phys_pages_d) + config_.pages_per_block - 1) /
                    config_.pages_per_block +
                config_.gc_free_block_threshold + 1;
  flash_ = ZeroFillMapping(physical_pages() * kPageSize);
  l2p_.assign(config_.logical_pages, kInvalid64);
  p2l_.assign(physical_pages(), kInvalid64);
  blocks_.assign(num_blocks_, BlockMeta{});
  free_blocks_.reserve(num_blocks_);
  for (std::uint64_t b = num_blocks_; b-- > 0;) free_blocks_.push_back(b);
}

IoStatus SsdModel::read(Lba page, std::span<std::uint8_t> out) {
  KDD_CHECK(page < config_.logical_pages);
  KDD_CHECK(out.size() == kPageSize);
  if (failed_) return IoStatus::kFailed;
  ++counters_.reads;
  const std::uint64_t phys = l2p_[page];
  if (phys == kInvalid64) {
    std::memset(out.data(), 0, kPageSize);
  } else {
    std::memcpy(out.data(), flash_.data() + phys * kPageSize, kPageSize);
  }
  return IoStatus::kOk;
}

IoStatus SsdModel::write(Lba page, std::span<const std::uint8_t> data) {
  KDD_CHECK(page < config_.logical_pages);
  KDD_CHECK(data.size() == kPageSize);
  if (failed_) return IoStatus::kFailed;
  ++counters_.writes;
  ++host_page_writes_;
  const std::uint64_t old_phys = l2p_[page];
  if (old_phys != kInvalid64) invalidate_physical(old_phys);
  const std::uint64_t phys = allocate_physical_page();
  program(phys, data, /*is_gc_copy=*/false);
  l2p_[page] = phys;
  p2l_[phys] = page;
  return IoStatus::kOk;
}

void SsdModel::trim(Lba page) {
  KDD_CHECK(page < config_.logical_pages);
  ++counters_.trims;
  if (failed_) return;
  const std::uint64_t phys = l2p_[page];
  if (phys != kInvalid64) {
    invalidate_physical(phys);
    l2p_[page] = kInvalid64;
  }
}

void SsdModel::replace() {
  flash_.release();
  std::fill(l2p_.begin(), l2p_.end(), kInvalid64);
  std::fill(p2l_.begin(), p2l_.end(), kInvalid64);
  blocks_.assign(num_blocks_, BlockMeta{});
  free_blocks_.clear();
  for (std::uint64_t b = num_blocks_; b-- > 0;) free_blocks_.push_back(b);
  active_block_ = kInvalid64;
  failed_ = false;
  host_page_writes_ = nand_page_writes_ = gc_page_copies_ = block_erases_ = 0;
}

SsdWearStats SsdModel::wear() const {
  SsdWearStats w;
  w.host_page_writes = host_page_writes_;
  w.nand_page_writes = nand_page_writes_;
  w.gc_page_copies = gc_page_copies_;
  w.block_erases = block_erases_;
  std::uint64_t total = 0;
  for (const auto& b : blocks_) {
    total += b.erase_count;
    w.max_erase_count = std::max(w.max_erase_count, b.erase_count);
  }
  w.mean_erase_count = static_cast<double>(total) / static_cast<double>(num_blocks_);
  return w;
}

std::vector<double> SsdModel::region_erase_counts(std::size_t regions) const {
  if (regions == 0) return {};
  regions = std::min<std::size_t>(regions, num_blocks_);
  std::vector<double> out(regions, 0.0);
  const std::uint64_t span = num_blocks_ / regions;
  for (std::uint64_t b = 0; b < num_blocks_; ++b) {
    const std::size_t r = std::min<std::size_t>(regions - 1, span ? b / span : 0);
    out[r] += static_cast<double>(blocks_[b].erase_count);
  }
  return out;
}

double SsdModel::endurance_consumed() const {
  const double budget =
      static_cast<double>(num_blocks_) * static_cast<double>(config_.pe_cycle_limit);
  return static_cast<double>(block_erases_) / budget;
}

void SsdModel::invalidate_physical(std::uint64_t phys) {
  KDD_DCHECK(p2l_[phys] != kInvalid64);
  p2l_[phys] = kInvalid64;
  BlockMeta& blk = blocks_[phys / config_.pages_per_block];
  KDD_DCHECK(blk.valid_pages > 0);
  --blk.valid_pages;
}

void SsdModel::program(std::uint64_t phys, std::span<const std::uint8_t> data,
                       bool is_gc_copy) {
  std::memcpy(flash_.data() + phys * kPageSize, data.data(), kPageSize);
  ++nand_page_writes_;
  if (is_gc_copy) ++gc_page_copies_;
  BlockMeta& blk = blocks_[phys / config_.pages_per_block];
  ++blk.valid_pages;
  blk.fill_seq = ++program_seq_;
}

std::uint64_t SsdModel::allocate_physical_page() {
  if (!in_gc_) maybe_collect_garbage();
  if (active_block_ == kInvalid64 ||
      blocks_[active_block_].write_ptr == config_.pages_per_block) {
    KDD_CHECK(!free_blocks_.empty());
    active_block_ = free_blocks_.back();
    free_blocks_.pop_back();
    KDD_DCHECK(blocks_[active_block_].write_ptr == 0);
  }
  BlockMeta& blk = blocks_[active_block_];
  const std::uint64_t phys =
      active_block_ * config_.pages_per_block + blk.write_ptr;
  ++blk.write_ptr;
  return phys;
}

void SsdModel::maybe_collect_garbage() {
  if (free_blocks_.size() >= config_.gc_free_block_threshold) return;
  in_gc_ = true;
  // Static wear leveling: at most one cold-block relocation per GC pass
  // (relocating a fully-valid block makes no free-space progress, so it must
  // never be the only thing the loop does).
  if (config_.wear_level_spread > 0) {
    std::uint64_t coldest = kInvalid64;
    std::uint32_t min_erase = 0xffffffffu;
    std::uint32_t max_erase = 0;
    for (std::uint64_t b = 0; b < num_blocks_; ++b) {
      if (b == active_block_) continue;
      if (blocks_[b].write_ptr != config_.pages_per_block) continue;
      min_erase = std::min(min_erase, blocks_[b].erase_count);
      max_erase = std::max(max_erase, blocks_[b].erase_count);
      if (coldest == kInvalid64 ||
          blocks_[b].erase_count < blocks_[coldest].erase_count) {
        coldest = b;
      }
    }
    if (coldest != kInvalid64 && max_erase - min_erase > config_.wear_level_spread) {
      relocate_block(coldest);
    }
  }
  while (free_blocks_.size() < config_.gc_free_block_threshold) {
    collect_one_block();
  }
  in_gc_ = false;
}

void SsdModel::collect_one_block() {
  // Victim selection over fully-written, non-active blocks.
  std::uint64_t victim = kInvalid64;
  double best_score = -1.0;
  for (std::uint64_t b = 0; b < num_blocks_; ++b) {
    if (b == active_block_) continue;
    const BlockMeta& blk = blocks_[b];
    if (blk.write_ptr != config_.pages_per_block) continue;  // free/partial
    double score;
    if (config_.gc_policy == GcPolicy::kGreedy) {
      // Fewest valid pages wins (ties to older blocks via fill_seq).
      score = static_cast<double>(config_.pages_per_block - blk.valid_pages);
    } else {
      // LFS cost-benefit: (1-u) * age / (1+u).
      const double u = static_cast<double>(blk.valid_pages) /
                       static_cast<double>(config_.pages_per_block);
      const double age =
          static_cast<double>(program_seq_ - blk.fill_seq) + 1.0;
      score = (1.0 - u) * age / (1.0 + u);
    }
    if (score > best_score) {
      best_score = score;
      victim = b;
    }
  }
  KDD_CHECK(victim != kInvalid64);
  relocate_block(victim);
}

void SsdModel::relocate_block(std::uint64_t victim) {
  // Relocate valid pages into the active allocation stream.
  std::uint8_t buf[kPageSize];
  for (std::uint32_t i = 0; i < config_.pages_per_block; ++i) {
    const std::uint64_t phys = victim * config_.pages_per_block + i;
    const std::uint64_t logical = p2l_[phys];
    if (logical == kInvalid64) continue;
    std::memcpy(buf, flash_.data() + phys * kPageSize, kPageSize);
    invalidate_physical(phys);
    const std::uint64_t dst = allocate_physical_page();
    program(dst, {buf, kPageSize}, /*is_gc_copy=*/true);
    l2p_[logical] = dst;
    p2l_[dst] = logical;
  }
  KDD_DCHECK(blocks_[victim].valid_pages == 0);
  blocks_[victim].write_ptr = 0;
  ++blocks_[victim].erase_count;
  ++block_erases_;
  free_blocks_.push_back(victim);
}

}  // namespace kdd
