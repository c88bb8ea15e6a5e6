// Destage-engine seam between a cache policy and the parallel cleaner pool.
//
// KDD's deferred parity work (Section III-D) is a three-stage pipeline:
//
//   1. prepare  — snapshot the dirty groups' delta sources (NVRAM staged
//                 blobs, DEZ-resident packed deltas) into a self-contained
//                 work unit. Touches policy state: runs under the policy
//                 lock.
//   2. fold     — decompress every delta and accumulate the raw per-member
//                 XOR diffs. Pure compute over the snapshot: runs with NO
//                 policy lock, which is exactly what the cleaner pool
//                 parallelises across workers.
//   3. commit   — fold the accumulated diffs into the stale parity with one
//                 batched RMW (one parity read + one XOR-accumulate + one
//                 parity write per group) and reclaim the old/DEZ pages.
//                 Touches policy + RAID state: runs under the policy lock.
//
// The pool claims groups (destage_claim) before queueing them so that the
// policy's own inline/idle cleaning passes skip in-flight groups; commit or
// abandon releases the claim. Between prepare and commit the caller must
// hold whatever lock serialises foreground requests to the claimed groups
// (ConcurrentCache holds the group's striped front lock across all three
// stages); commit revalidates every page against live slot state anyway, so
// pages resolved behind the pipeline's back (e.g. the emergency synchronous
// fold in commit_staging) are skipped, never double-applied.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "raid/io_plan.hpp"
#include "raid/layout.hpp"

namespace kdd {

/// Opaque, self-contained destage work unit produced by destage_prepare.
/// fold() is thread-safe with respect to the producing policy: it touches
/// only the snapshot captured at prepare time.
class DestageUnit {
 public:
  virtual ~DestageUnit() = default;

  /// Stage 2: decompress + XOR-fold every captured delta. Requires no lock.
  virtual void fold() = 0;

  /// Parity groups covered by this unit (claimed until commit/abandon).
  virtual std::span<const GroupId> groups() const = 0;
};

/// Implemented by policies (KDD) whose background cleaning the
/// ConcurrentCache cleaner pool can drive. All methods except
/// DestageUnit::fold must be called under the policy lock.
class DestageSource {
 public:
  virtual ~DestageSource() = default;

  /// Claims the (up to) `max_groups` least recently written dirty, unclaimed
  /// parity groups and returns them in disk-layout order (parity disk, then
  /// parity page): recency picks the victims, so groups still being
  /// rewritten stay cached, and a batch issued in layout order walks each
  /// spindle sequentially. Claimed groups are skipped by the policy's own
  /// cleaning passes until released.
  virtual std::vector<GroupId> destage_claim(std::size_t max_groups) = 0;

  /// Stage 1: snapshots the delta sources of `groups` (all must be claimed).
  /// Returns null when none of the groups has pending work any more (their
  /// claims are released). Groups whose deltas cannot be loaded are marked
  /// for healing inside the unit; commit performs the heal.
  virtual std::unique_ptr<DestageUnit> destage_prepare(
      std::span<const GroupId> groups, IoPlan* plan) = 0;

  /// Stage 3: batched parity RMW + reclaim + claim release for every group
  /// in the unit. Revalidates each captured page against live slot state.
  virtual void destage_commit(DestageUnit& unit, IoPlan* plan) = 0;

  /// Releases claims without destaging (pool shutdown, prepare skipped).
  virtual void destage_abandon(std::span<const GroupId> groups) = 0;

  /// True when deferred work exceeds the cleaning high watermark — the
  /// pool's wake-up signal.
  virtual bool destage_pending() const = 0;

  /// Preferred groups-per-batch (the policy's watermark-gap autosize). A
  /// pool claims about hint * workers groups per refill.
  virtual std::size_t destage_batch_hint() const { return 8; }

  /// Routes the policy's watermark cleaning to an external driver: inline
  /// maybe_clean passes become no-ops and the pool owns destage entirely.
  virtual void set_external_cleaner(bool external) = 0;
};

}  // namespace kdd
