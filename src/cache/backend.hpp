// Data-plane seams that let every cache policy run in two modes with one
// implementation of its management logic:
//
//  * counter mode — the paper's Section IV-A methodology: no page contents,
//    only address streams; SSD writes and disk I/Os are counted and delta
//    sizes are drawn from a Gaussian sampler.
//  * prototype mode — Section IV-B: real bytes flow through a real SsdModel
//    and RaidArray with real delta compression, so correctness (parity,
//    recovery) is verifiable end-to-end.
//
// CacheSsd fronts the cache device; RaidBackend fronts the primary storage.
// Both record DeviceOps into the caller's IoPlan so the discrete-event
// simulator can time either mode.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>

#include "blockdev/fault_device.hpp"
#include "blockdev/retry.hpp"
#include "blockdev/ssd_model.hpp"
#include "cache/cache_stats.hpp"
#include "raid/io_plan.hpp"
#include "raid/raid_array.hpp"

namespace kdd {

/// The SSD used as cache. Cache data pages live at SSD LBA
/// [metadata_pages, metadata_pages + cache_pages); the metadata partition
/// occupies [0, metadata_pages) ("a fixed partition in the beginning of the
/// SSD", Section III-A).
class CacheSsd {
 public:
  /// Counter mode.
  CacheSsd(std::uint64_t metadata_pages, std::uint64_t cache_pages);
  /// Prototype mode: wraps a real SSD (not owned) whose logical capacity
  /// must be >= metadata_pages + cache_pages.
  CacheSsd(std::uint64_t metadata_pages, std::uint64_t cache_pages, SsdModel* ssd);

  std::uint64_t cache_pages() const { return cache_pages_; }
  std::uint64_t metadata_pages() const { return metadata_pages_; }
  bool real() const { return ssd_ != nullptr; }
  SsdModel* device() { return ssd_; }

  /// Fault-injection decorator all prototype-mode I/O flows through
  /// (null in counter mode). Latent sector errors, transients, torn writes
  /// and bit rot on the cache device are injected here.
  FaultInjectingDevice* faults() { return fault_dev_.get(); }

  /// Swaps in a fresh cache device AND forgets the decorator's per-page fault
  /// state (checksums/latent errors belong to the old media).
  void replace_device();

  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }

  /// Reads cache data page `idx`; `out` may be empty in counter mode.
  IoStatus read_data(std::uint64_t idx, std::span<std::uint8_t> out, IoPlan* plan);

  /// Writes cache data page `idx`; `data` may be empty in counter mode.
  IoStatus write_data(std::uint64_t idx, SsdWriteKind kind,
                      std::span<const std::uint8_t> data, IoPlan* plan);

  /// Releases cache data page `idx` (TRIM to the FTL in prototype mode).
  void trim_data(std::uint64_t idx);

  /// Reads/writes metadata partition page `slot` (0-based within partition).
  IoStatus read_metadata(std::uint64_t slot, std::span<std::uint8_t> out, IoPlan* plan);
  IoStatus write_metadata(std::uint64_t slot, std::span<const std::uint8_t> data,
                          IoPlan* plan);

  /// Per-kind write counters (pages) and total reads.
  const std::uint64_t* writes_by_kind() const { return writes_by_kind_; }
  std::uint64_t total_writes() const;
  std::uint64_t total_reads() const { return reads_; }

  /// Mirrors counters into `stats` (the policy owns aggregated stats).
  void export_stats(CacheStats& stats) const;

  /// Host write commands issued to the SSD, and pages committed by them.
  /// Every committed page is one command, so both equal total_writes().
  std::uint64_t write_ops() const { return total_writes(); }
  std::uint64_t pages_committed() const { return total_writes(); }

 private:
  IoStatus do_read(Lba ssd_lba, std::span<std::uint8_t> out, IoPlan* plan);
  IoStatus do_write(Lba ssd_lba, std::span<const std::uint8_t> data, IoPlan* plan);

  std::uint64_t metadata_pages_;
  std::uint64_t cache_pages_;
  SsdModel* ssd_ = nullptr;  ///< null in counter mode
  std::unique_ptr<FaultInjectingDevice> fault_dev_;  ///< wraps ssd_ when real
  RetryPolicy retry_policy_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_by_kind_[kNumSsdWriteKinds] = {};
  Page scratch_;  ///< zero page used when counter-mode callers pass no data
};

/// The primary storage. In counter mode it tracks stale parity groups and
/// I/O counts through the layout only; in prototype mode it forwards to a
/// real RaidArray.
class RaidBackend {
 public:
  /// Counter mode.
  explicit RaidBackend(const RaidGeometry& geo);
  /// Prototype mode (array not owned).
  explicit RaidBackend(RaidArray* array);

  const RaidLayout& layout() const { return layout_; }
  bool real() const { return array_ != nullptr; }
  RaidArray* array() { return array_; }

  IoStatus read_page(Lba lba, std::span<std::uint8_t> out, IoPlan* plan);
  IoStatus write_page(Lba lba, std::span<const std::uint8_t> data, IoPlan* plan);
  /// write_page with the caller's row-mate images (see the RaidArray
  /// overload): null entries are read from disk, and reconstruct-write is
  /// taken when that reads fewer pages than RMW. Counter mode makes the same
  /// choice from which entries are non-null (their bytes are never read) and
  /// records the same plan; both modes count the disk reads of the path
  /// taken.
  IoStatus write_page(Lba lba, std::span<const std::uint8_t> data,
                      std::span<const Page* const> members, IoPlan* plan);
  IoStatus write_page_nopar(Lba lba, std::span<const std::uint8_t> data, IoPlan* plan);

  /// Full-stripe write: all data members of group `g` at once, parity
  /// computed without any read. `data` entries may be empty in counter mode.
  IoStatus write_group(GroupId g, std::span<const Page> data, IoPlan* plan);

  /// Deferred parity update, RMW flavour. In counter mode only the plan/count
  /// matter; in prototype mode `deltas` carries the real XOR diffs. With
  /// finalize == false the group stays marked stale (partial fix).
  IoStatus update_parity_rmw(GroupId g, std::span<const GroupDelta> deltas,
                             IoPlan* plan, bool finalize = true);

  /// Deferred parity update, reconstruct-write flavour: one entry per data
  /// member, the member's current contents, or null to read it from disk
  /// (each such read is counted). Counter mode never dereferences an entry.
  IoStatus update_parity_reconstruct_cached(GroupId g,
                                            std::span<const Page* const> current_data,
                                            IoPlan* plan);

  bool group_stale(GroupId g) const;
  std::uint64_t stale_group_count() const;

  std::uint64_t disk_reads() const { return disk_reads_; }
  std::uint64_t disk_writes() const { return disk_writes_; }

 private:
  void plan_rmw(GroupId g, Lba lba, IoPlan* plan);
  void plan_rcw(GroupId g, Lba lba, std::span<const Page* const> members,
                IoPlan* plan);

  RaidLayout layout_;
  RaidArray* array_ = nullptr;
  std::unordered_set<GroupId> counter_stale_;  ///< counter mode only
  std::uint64_t disk_reads_ = 0;
  std::uint64_t disk_writes_ = 0;
};

}  // namespace kdd
