// RAID array engine: RAID-0/5/6 over memory-backed disks with real data and
// real parity. Implements the conventional write paths (read-modify-write,
// reconstruct-write, full-stripe write), degraded reads, disk rebuild and
// resynchronisation — plus the two extension interfaces KDD adds
// (Section III-A): write-without-parity-update and parity-update.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "blockdev/fault_device.hpp"
#include "blockdev/mem_device.hpp"
#include "blockdev/retry.hpp"
#include "common/bytes.hpp"
#include "raid/io_plan.hpp"
#include "raid/layout.hpp"

namespace kdd {

/// (data index within group, XOR of old and new contents of that member).
struct GroupDelta {
  std::uint32_t index;
  const Page* xor_diff;
};

/// How many of `lba`'s row-mates `members` supplies an image for: the
/// non-null entries other than `lba`'s own. An empty span supplies none;
/// otherwise it holds one entry per data member of the group.
std::uint32_t supplied_row_mates(const RaidLayout& layout, Lba lba,
                                 std::span<const Page* const> members);

class RaidArray {
 public:
  explicit RaidArray(const RaidGeometry& geo);

  const RaidLayout& layout() const { return layout_; }
  const RaidGeometry& geometry() const { return layout_.geometry(); }
  std::uint64_t data_pages() const { return layout_.geometry().data_pages(); }

  // ---- Normal I/O path -----------------------------------------------------

  /// Reads one logical page; reconstructs from peers when its disk is down.
  /// Self-healing (read-error repair): a page-level kMediaError / kCorrupt on
  /// a healthy disk is recovered via parity reconstruction, and the
  /// reconstructed contents are written back to heal the latent sector error.
  /// Transient errors are absorbed by a bounded retry whose backoff is
  /// charged to `plan`.
  IoStatus read_page(Lba lba, std::span<std::uint8_t> out, IoPlan* plan = nullptr);

  /// Writes one logical page with full parity maintenance (RMW; degraded-safe).
  IoStatus write_page(Lba lba, std::span<const std::uint8_t> data,
                      IoPlan* plan = nullptr);

  /// write_page with the caller's images of the page's row-mates: one entry
  /// per data member of its group (the written page's own entry is ignored),
  /// null meaning "read it from disk". Each image must be the version the
  /// group's parity reflects. Takes reconstruct-write — parity recomputed
  /// from the images, the disk reads and `data` — when that reads fewer
  /// pages than RMW (RaidGeometry::prefers_reconstruct_write), else RMW; an
  /// empty span is plain RMW. The data write needs no read, so the plan
  /// issues it beside the member reads and only the parity writes wait for
  /// them. A member read fault falls back to RMW before anything is written.
  /// The group's stale flag is left exactly as it was.
  IoStatus write_page(Lba lba, std::span<const std::uint8_t> data,
                      std::span<const Page* const> members, IoPlan* plan);

  /// Full-stripe write: caller supplies all data members of group `g`;
  /// parity is computed without any read.
  IoStatus write_group(GroupId g, std::span<const Page> data, IoPlan* plan = nullptr);

  // ---- KDD extension interfaces (Section III-A) ----------------------------

  /// Writes only the data page and marks the parity group stale. The caller
  /// (the cache) guarantees it can regenerate parity later from its deltas.
  IoStatus write_page_nopar(Lba lba, std::span<const std::uint8_t> data,
                            IoPlan* plan = nullptr);

  /// RMW-style deferred parity update: reads the stale parity, folds in the
  /// caller's accumulated XOR deltas and writes parity back. With
  /// finalize == true the group's staleness is cleared (all pending deltas
  /// were supplied); finalize == false applies a partial fix and keeps the
  /// group marked stale.
  IoStatus update_parity_rmw(GroupId g, std::span<const GroupDelta> deltas,
                             IoPlan* plan = nullptr, bool finalize = true);

  /// Reconstruct-write-style parity update: the caller supplies the *current*
  /// contents of every data member (entries may be nullptr, in which case
  /// that member is read from disk); parity is recomputed from scratch.
  IoStatus update_parity_reconstruct(GroupId g,
                                     std::span<const Page* const> current_data,
                                     IoPlan* plan = nullptr);

  /// Recomputes parity of `g` by reading all data members (used for resync
  /// after SSD failure). Equivalent to update_parity_reconstruct with no
  /// caller-supplied data.
  IoStatus resync_group(GroupId g, IoPlan* plan = nullptr);

  /// Resyncs every stale group. Returns the number of groups resynced.
  std::uint64_t resync_all_stale();

  // ---- Stale-parity tracking ------------------------------------------------

  bool group_stale(GroupId g) const { return stale_groups_.contains(g); }
  std::uint64_t stale_group_count() const { return stale_groups_.size(); }
  std::vector<GroupId> stale_groups() const;

  // ---- Failure handling ------------------------------------------------------

  void fail_disk(std::uint32_t disk);
  bool disk_failed(std::uint32_t disk) const { return disks_[disk]->failed(); }
  std::uint32_t failed_disk_count() const;

  /// True when `disk` cannot serve group `g`: either the device failed
  /// outright, or it is mid-(online-)rebuild and `g` lies at or after the
  /// rebuild cursor. Groups below the cursor are already reconstructed and
  /// fully valid, so a rebuilding disk serves them normally — this predicate
  /// is what makes the rebuild incremental rather than stop-the-world.
  bool member_down(std::uint32_t disk, GroupId g) const {
    if (disks_[disk]->failed()) return true;
    return disk == rebuilding_disk_ && g >= rebuild_cursor_;
  }
  /// member_down() for the disk holding logical page `lba`.
  bool page_down(Lba lba) const {
    return member_down(layout_.map(lba).disk, layout_.group_of(lba));
  }
  /// member_down() for any data or parity member of group `g`.
  bool group_has_failed_member(GroupId g) const;
  /// Any member unavailable anywhere: a failed disk or an in-flight rebuild.
  bool degraded() const { return failed_disk_count() > 0 || rebuild_active(); }

  /// False while any member's power rail is down. Background machinery (the
  /// rebuild pump, the scrub scheduler) stops cleanly on this instead of
  /// misreading power-cut rejections as media loss.
  bool powered() const {
    for (const auto& d : disks_) {
      if (!d->powered()) return false;
    }
    return true;
  }

  // ---- Online (incremental, checkpointed) rebuild ---------------------------

  static constexpr std::uint32_t kNoRebuild = ~0u;

  /// Starts an incremental rebuild of failed `disk`: drains the registered
  /// pre-rebuild hook (parity log), swaps in blank media, clears the old
  /// platters' fault state and parks the cursor at group 0. Until
  /// rebuild_finish() the disk serves only groups below the cursor; every
  /// other path treats it as a failed member (member_down).
  void rebuild_begin(std::uint32_t disk);

  /// Resumes a checkpointed rebuild after a controller restart: the media was
  /// already replaced by the interrupted rebuild, groups below `cursor` are
  /// valid and are NOT reconstructed again.
  void rebuild_resume(std::uint32_t disk, GroupId cursor);

  /// Reconstructs up to `max_groups` groups at the cursor and advances it.
  /// Returns the number of groups processed (0 == nothing left or the power
  /// rail dropped mid-step; a power cut never marks stripes lost — the
  /// checkpointed cursor simply resumes after restore). Double faults behave
  /// exactly as in rebuild_disk(): the group is recorded in
  /// last_rebuild_lost() and its page marked unreadable.
  std::uint64_t rebuild_step(std::uint64_t max_groups, IoPlan* plan = nullptr);

  /// Completes the rebuild; requires the cursor to have reached the end.
  void rebuild_finish();

  /// Abandons an in-flight rebuild without touching the media (models a
  /// controller reboot losing its in-core cursor). The disk reverts to
  /// serving nothing valid beyond what a subsequent rebuild_resume() — fed
  /// from an NVRAM checkpoint — vouches for.
  void rebuild_abandon();

  bool rebuild_active() const { return rebuilding_disk_ != kNoRebuild; }
  GroupId rebuild_cursor() const { return rebuild_cursor_; }
  std::uint32_t rebuilding_disk() const { return rebuilding_disk_; }
  /// Groups (since rebuild_begin/resume) reconstructed from *stale* parity —
  /// the vulnerability window; the online engine's force-destage barrier
  /// exists to keep this zero.
  std::uint64_t rebuild_stale_folds() const { return rebuild_stale_folds_; }

  /// Hook invoked with the disk id before any rebuild touches the array
  /// (rebuild_begin / rebuild_disk). ParityLogRaid registers its apply_log
  /// here, so a rebuild can never run against a stale parity log.
  void set_pre_rebuild_hook(std::function<void(std::uint32_t)> hook) {
    pre_rebuild_hook_ = std::move(hook);
  }

  /// Reads served via degraded reconstruction (failed member or a rebuilding
  /// disk's not-yet-reconstructed region). Mirrored to
  /// kdd_degraded_reads_total in the global metrics registry.
  std::uint64_t degraded_reads() const { return degraded_reads_; }

  /// Replaces the failed disk with a blank one and reconstructs its contents
  /// from the surviving disks. Returns the number of parity groups whose
  /// contents were rebuilt from *stale* parity (i.e. potentially corrupted —
  /// the vulnerability window the paper describes; KDD flushes parity before
  /// triggering rebuild precisely to keep this zero).
  ///
  /// Double faults (a media error on a survivor while rebuilding) do NOT
  /// abort the rebuild: the affected groups are recorded in
  /// last_rebuild_lost() and their unreconstructable page on the new disk is
  /// marked as a media error, so subsequent reads fail cleanly with
  /// kFailed/kMediaError instead of silently returning blank data.
  std::uint64_t rebuild_disk(std::uint32_t disk);

  /// Parity groups the last rebuild_disk call could not fully reconstruct
  /// (data-loss report for exactly the affected stripes).
  const std::vector<GroupId>& last_rebuild_lost() const { return last_rebuild_lost_; }

  // ---- Verification ----------------------------------------------------------

  /// Checks parity of every group (bypassing counters); returns the ids of
  /// inconsistent groups. With no deferred updates pending this must be empty;
  /// with deferred updates it must equal the stale set.
  std::vector<GroupId> scrub() const;

  /// Incremental scrub over groups [begin, end) — the unit the background
  /// scrub scheduler (src/raid/scrub.hpp) rate-limits.
  std::vector<GroupId> scrub_range(GroupId begin, GroupId end) const;

  /// Scrubs and repairs groups in [begin, end). With `skip_stale` the known
  /// stale (deferred-parity) groups are left alone — they are owned by the
  /// cache, which will fold their deltas; resyncing them here would erase the
  /// staleness marker underneath pending deltas and corrupt the later fold.
  std::uint64_t scrub_and_repair_range(GroupId begin, GroupId end,
                                       bool skip_stale = false);

  /// Scrubs and repairs every inconsistent group. Repair is located, not
  /// blind: stale groups resync from data (the KDD deferred-parity contract);
  /// otherwise checksum-verified reads (kCorrupt/kMediaError) localise the
  /// rotted page, which is reconstructed from its peers and rewritten; for
  /// RAID-6 the P/Q syndromes localise a single silent data corruption even
  /// without device-level detection; only as a last resort is parity
  /// recomputed from data. Returns the number repaired.
  std::uint64_t scrub_and_repair();

  /// The raw media behind disk `i` (bypasses fault injection; tests/scrub).
  MemBlockDevice& disk(std::uint32_t i) { return *media_[i]; }
  const MemBlockDevice& disk(std::uint32_t i) const { return *media_[i]; }

  /// Per-disk fault-injection decorator (the device the array actually does
  /// I/O through).
  FaultInjectingDevice& faults(std::uint32_t i) { return *disks_[i]; }
  const FaultInjectingDevice& faults(std::uint32_t i) const { return *disks_[i]; }

  /// Attaches every disk to one shared power domain.
  void attach_rail(const std::shared_ptr<PowerRail>& rail);

  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Pages healed by read-error repair (reconstruct + write-back).
  std::uint64_t read_repairs() const { return read_repairs_; }

  /// Aggregate disk I/O counters (pages, at the media level).
  std::uint64_t total_disk_reads() const;
  std::uint64_t total_disk_writes() const;
  void reset_counters();

 private:
  /// Retry-wrapped device I/O; transient backoff is charged to `plan`.
  IoStatus dev_read(std::uint32_t disk, Lba page, std::span<std::uint8_t> out,
                    IoPlan* plan = nullptr);
  IoStatus dev_write(std::uint32_t disk, Lba page, std::span<const std::uint8_t> data,
                     IoPlan* plan = nullptr);
  /// Recovers a partial read fault on a healthy disk: parity reconstruction
  /// plus write-back of the reconstructed page (read-error repair).
  IoStatus read_repair(Lba lba, std::span<std::uint8_t> out, IoPlan* plan);
  /// Repairs one inconsistent group (see scrub_and_repair).
  bool repair_group(GroupId g);
  /// Reconstructs the contents of the (lost) page at data index `idx` /
  /// parity of group `g` from the surviving devices. Page-level faults on
  /// survivors count as additional erasures (RAID-6 can absorb one).
  IoStatus reconstruct_data(GroupId g, std::uint32_t idx, std::span<std::uint8_t> out);
  /// Degraded / general write: reads the whole group (reconstructing lost
  /// members), applies the update, rewrites parity and the data page.
  IoStatus write_page_general(Lba lba, std::span<const std::uint8_t> data, IoPlan* plan);
  /// The two healthy-group small writes behind write_page.
  IoStatus write_page_rmw(Lba lba, std::span<const std::uint8_t> data, IoPlan* plan);
  IoStatus write_page_rcw(Lba lba, std::span<const std::uint8_t> data,
                          std::span<const Page* const> members, IoPlan* plan);
  void compute_parity(std::span<const Page> data, Page& p, Page* q) const;
  /// Reconstructs one group onto the rebuilding disk. Returns false only when
  /// the step was aborted by a power cut (cursor must not advance).
  bool rebuild_group(GroupId g, IoPlan* plan);

  RaidLayout layout_;
  std::vector<std::unique_ptr<MemBlockDevice>> media_;          ///< raw disks
  std::vector<std::unique_ptr<FaultInjectingDevice>> disks_;    ///< injectable I/O path
  std::unordered_set<GroupId> stale_groups_;
  std::vector<GroupId> last_rebuild_lost_;
  RetryPolicy retry_policy_;
  std::function<void(std::uint32_t)> pre_rebuild_hook_;
  std::uint32_t rebuilding_disk_ = kNoRebuild;
  GroupId rebuild_cursor_ = 0;
  std::uint64_t rebuild_stale_folds_ = 0;
  std::uint64_t degraded_reads_ = 0;
  std::uint64_t read_repairs_ = 0;
};

}  // namespace kdd
