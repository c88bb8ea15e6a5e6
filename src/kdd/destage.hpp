// KDD's batched destage pipeline (Section III-D). The cleaner repairs stale
// parity in batches of parity groups, each batch passing four stages that
// are public KddCache members:
//
//   1. claim    — pick the k least recently written dirty groups and sort
//                 them into disk-layout order (parity disk, then parity
//                 page): recency picks the victims, so groups still being
//                 rewritten stay cached, and the batch walks each spindle
//                 sequentially.
//   2. prepare  — snapshot the groups' delta sources (NVRAM staged blobs,
//                 DEZ-resident packed deltas) and, for groups whose every
//                 data member is cached, the member images into a BatchUnit.
//   3. fold     — decompress every delta and accumulate the raw per-member
//                 XOR diffs. Pure compute over the snapshot: touches no
//                 cache state.
//   4. commit   — fold the accumulated diffs into the stale parity with one
//                 RMW per group (one parity read + one XOR-accumulate + one
//                 parity write) and reclaim the old/DEZ pages.
//
// KddCache::destage_batch_once runs the four back to back from the cache's
// own cleaning passes (watermark, idle, flush). Forced folds run stages 2-4
// over the groups they name: the rebuild stripe barrier over the dirty
// groups of its window, a degraded request over its one stale group. Tests
// drive the stages by hand.
// Commit revalidates every captured page against live slot state, so a page
// resolved between prepare and commit is skipped, never double-applied.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "compress/delta.hpp"
#include "raid/layout.hpp"

namespace kdd {

/// Self-contained destage work unit produced by KddCache::destage_prepare:
/// per-group captured deltas (RMW flavour) or member images (reconstruct
/// flavour) plus the raw XOR diffs fold() produces.
struct BatchUnit {
  struct PageWork {
    std::uint32_t daz_idx = 0;
    Lba lba = kInvalidLba;
    std::uint32_t index = 0;  ///< data index within the parity group
    Delta blob;               ///< delta captured at prepare (real mode)
    Page xor_diff;            ///< raw XOR diff, produced by fold()
    bool have_blob = false;
  };
  /// Reconstruct flavour only: one entry per data member of the stripe.
  struct MemberWork {
    std::uint32_t slot = 0;
    Page image;      ///< DAZ image captured at prepare (real mode)
    bool ok = false; ///< readable; when false the array reads the disk copy
  };
  struct GroupWork {
    GroupId group = 0;
    bool reconstruct = false;  ///< all members cached: reconstruct-write
    bool needs_heal = false;   ///< a delta was unloadable: commit heals
    std::vector<PageWork> pages;      ///< every old page of the group
    std::vector<MemberWork> members;  ///< reconstruct flavour, size data_disks
  };

  /// Stage 3: decompresses every captured delta into its raw XOR diff; for
  /// reconstruct-flavour groups also folds each diff into its member image
  /// (DAZ base ^ raw XOR == current version).
  void fold();

  std::vector<GroupWork> work;  ///< one entry per group, in claim order
  bool real = false;            ///< prototype mode: blobs and images are real
};

}  // namespace kdd
