// Flash SSD model: a page-mapped FTL over simulated NAND with real data,
// program/erase accounting, greedy garbage collection and wear statistics.
//
// This is the endurance substrate for the paper's headline claim — KDD
// extends SSD cache lifetime by writing less. The model exposes both host
// write counters (what the cache issues) and NAND-level counters (after FTL
// write amplification), plus an endurance estimate from per-block erase
// counts against a P/E cycle budget.
#pragma once

#include <cstdint>
#include <vector>

#include "blockdev/block_device.hpp"
#include "common/zero_mapping.hpp"

namespace kdd {

/// GC victim selection policy.
enum class GcPolicy : std::uint8_t {
  kGreedy,      ///< fewest valid pages (min write amplification now)
  kCostBenefit, ///< LFS-style (1-u)*age/(1+u): trades WA for wear spread
};

struct SsdConfig {
  std::uint64_t logical_pages = 262144;  ///< exported capacity (1 GiB at 4 KiB)
  std::uint32_t pages_per_block = 64;
  double overprovision = 0.07;           ///< extra physical space fraction
  std::uint32_t pe_cycle_limit = 3000;   ///< MLC-class endurance per block
  std::uint32_t gc_free_block_threshold = 4;
  GcPolicy gc_policy = GcPolicy::kGreedy;
  /// Static wear leveling: when the erase-count spread exceeds this, GC
  /// occasionally victimises the coldest (least-erased) full block to move
  /// its static data off. 0 disables.
  std::uint32_t wear_level_spread = 0;
};

struct SsdWearStats {
  std::uint64_t host_page_writes = 0;
  std::uint64_t nand_page_writes = 0;  ///< host writes + GC copies
  std::uint64_t gc_page_copies = 0;
  std::uint64_t block_erases = 0;
  double mean_erase_count = 0.0;
  std::uint32_t max_erase_count = 0;

  double write_amplification() const {
    return host_page_writes
               ? static_cast<double>(nand_page_writes) / static_cast<double>(host_page_writes)
               : 1.0;
  }
};

class SsdModel final : public BlockDevice {
 public:
  explicit SsdModel(const SsdConfig& config);

  IoStatus read(Lba page, std::span<std::uint8_t> out) override;
  IoStatus write(Lba page, std::span<const std::uint8_t> data) override;
  std::uint64_t num_pages() const override { return config_.logical_pages; }
  void trim(Lba page) override;

  /// Swap in a fresh device: blank flash, zero wear, mappings cleared. The
  /// old flash array's memory goes back to the kernel.
  /// (Whole-device failure injection itself lives on BlockDevice::fail(),
  /// as in Section III-E2.)
  void replace();

  SsdWearStats wear() const;

  /// Fraction of total endurance consumed, in [0, 1+): total erases divided
  /// by (blocks * pe_cycle_limit). The paper's "lifetime improvement" of one
  /// policy over another is the inverse ratio of this value at equal work.
  double endurance_consumed() const;

  /// Total erase count of each of `regions` equal spans of physical blocks
  /// (the last region absorbs the remainder). Feeds the health engine's
  /// wear-imbalance rule: uneven per-region erase totals mean GC is burning
  /// one part of the device.
  std::vector<double> region_erase_counts(std::size_t regions) const;

  const SsdConfig& config() const { return config_; }
  std::uint64_t physical_blocks() const { return num_blocks_; }

 private:
  static constexpr std::uint32_t kInvalid32 = 0xffffffffu;
  static constexpr std::uint64_t kInvalid64 = ~0ull;

  struct BlockMeta {
    std::uint32_t valid_pages = 0;
    std::uint32_t write_ptr = 0;  ///< next free page slot within the block
    std::uint32_t erase_count = 0;
    std::uint64_t fill_seq = 0;   ///< program sequence when last written (age proxy)
  };

  std::uint64_t physical_pages() const { return num_blocks_ * config_.pages_per_block; }
  std::uint64_t allocate_physical_page();
  void maybe_collect_garbage();
  void collect_one_block();
  /// Copies a block's valid pages into the active stream and erases it.
  void relocate_block(std::uint64_t victim);
  void invalidate_physical(std::uint64_t phys);
  void program(std::uint64_t phys, std::span<const std::uint8_t> data, bool is_gc_copy);

  SsdConfig config_;
  std::uint64_t num_blocks_;
  ZeroFillMapping flash_;                    ///< physical page contents (lazily committed)
  std::vector<std::uint64_t> l2p_;           ///< logical -> physical (kInvalid64 = unmapped)
  std::vector<std::uint64_t> p2l_;           ///< physical -> logical
  std::vector<BlockMeta> blocks_;
  std::vector<std::uint64_t> free_blocks_;   ///< LIFO pool of erased blocks
  std::uint64_t active_block_ = kInvalid64;
  bool in_gc_ = false;

  std::uint64_t host_page_writes_ = 0;
  std::uint64_t nand_page_writes_ = 0;
  std::uint64_t gc_page_copies_ = 0;
  std::uint64_t block_erases_ = 0;
  std::uint64_t program_seq_ = 0;  ///< global program counter (GC age proxy)
};

}  // namespace kdd
