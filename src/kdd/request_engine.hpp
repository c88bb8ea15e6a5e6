// The speculative write split between the ConcurrentCache front door
// (kdd/concurrent.hpp) and a policy (KddCache implements it).
//
// The front door runs every request to completion on the submitter's thread
// under the single policy mutex. This hook lets it hold that mutex only for
// admission/placement decisions on a write hit: the expensive delta
// computation (DAZ read-back diff + LZ compress, the dominant per-request
// CPU cost) moves outside the lock.
#pragma once

#include <cstdint>
#include <span>

#include "cache/policy.hpp"
#include "compress/delta.hpp"

namespace kdd {

/// Protocol, always under the request's stripe lock (which serialises every
/// request of the parity group, so the slot's contents cannot change under
/// the speculation — see docs/performance.md):
///   1. [policy lock]  snap = write_snapshot(lba, base)  — copy the DAZ base
///   2. [NO locks]     delta = make_delta(base, data)    — the parallel part
///   3. [policy lock]  write_prepared(lba, data, snap, delta)
/// write_prepared revalidates the snapshot against live state (concurrent
/// activity on *other* stripes may have evicted, cleaned or healed the slot)
/// and falls back to the plain write() path — recomputing the delta inline —
/// on any mismatch, so the result is byte-equivalent to the synchronous path
/// in every case.
class SpeculativeWriteSource {
 public:
  struct Snapshot {
    std::uint32_t idx = 0;     ///< slot index the base was captured from
    std::uint8_t state = 0;    ///< PageState at capture time
    bool valid = false;        ///< false: don't speculate, take write()
  };
  struct PreparedDelta {
    Delta blob;
    std::uint32_t packed = 0;  ///< blob.packed_size() at compute time
  };

  virtual ~SpeculativeWriteSource() = default;

  /// Under the policy mutex: if `lba` is currently a write hit whose delta
  /// can be computed outside the lock (real data plane, readable DAZ base),
  /// copies the base page into `base` (kPageSize) and returns a valid
  /// snapshot; otherwise returns valid = false.
  virtual Snapshot write_snapshot(Lba lba, std::span<std::uint8_t> base) = 0;

  /// Under the policy mutex again: consume a delta computed outside the
  /// lock. Must behave exactly like write() when the snapshot no longer
  /// matches live state.
  virtual IoStatus write_prepared(Lba lba, std::span<const std::uint8_t> data,
                                  const Snapshot& snap, PreparedDelta&& delta,
                                  IoPlan* plan) = 0;
};

}  // namespace kdd
