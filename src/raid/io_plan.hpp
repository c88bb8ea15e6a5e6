// IoPlan: the bridge between the data plane and the timing plane.
//
// Every logical operation (array read, RMW write, cache hit, ...) executes
// immediately against the in-memory devices for correctness, and — when the
// caller passes a plan — records the device I/Os it performed as a sequence
// of phases. Ops within a phase are independent (issued in parallel); phases
// are ordered (phase k+1 starts when all ops of phase k completed). The
// discrete-event simulator replays plans against per-device queues to obtain
// response times, exactly mirroring e.g. RAID-5 RMW's
// [read data, read parity] -> [write data, write parity] dependency shape.
//
// A request whose device work splits into independent chains (a cache read
// beside an array write, say) records each chain into its own lane of a
// PlanFork and joins them side by side, so it takes as long as its slowest
// chain rather than the sum of its chains.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "blockdev/timing.hpp"
#include "common/units.hpp"

namespace kdd {

struct DeviceOp {
  enum class Target : std::uint8_t { kHdd, kSsd };

  Target target = Target::kHdd;
  std::uint32_t device = 0;  ///< disk index for kHdd; 0 for the single SSD
  Lba page = 0;
  IoKind kind = IoKind::kRead;
};

class IoPlan {
 public:
  /// Appends `op` to phase `phase`, growing the phase list as needed.
  void add(std::size_t phase, DeviceOp op) {
    if (phases_.size() <= phase) phases_.resize(phase + 1);
    phases_[phase].push_back(op);
  }

  /// Appends all phases of `other` after the current last phase. `other`
  /// waits behind this plan, so its retry backoff adds to this plan's.
  void append_sequential(const IoPlan& other) {
    for (const auto& ph : other.phases_) {
      if (ph.empty()) continue;
      phases_.push_back(ph);
    }
    retry_delay_us_ += other.retry_delay_us_;
  }

  /// Merges `other` side by side from phase `at`: phase k of `other` proceeds
  /// in parallel with phase at + k of this plan. From phase 0 it combines the
  /// per-page plans of a multi-page request; PlanFork joins its lanes at the
  /// fork phase. Retry backoff follows the shape: merged from phase 0 the two
  /// plans run beside each other and the longer backoff counts; merged past
  /// this plan's last phase `other` runs behind it and the backoffs add.
  void merge_parallel(const IoPlan& other, std::size_t at = 0) {
    const bool behind = at > 0 && at >= phases_.size();
    retry_delay_us_ = behind ? retry_delay_us_ + other.retry_delay_us_
                             : std::max(retry_delay_us_, other.retry_delay_us_);
    if (phases_.size() < at + other.phases_.size()) {
      phases_.resize(at + other.phases_.size());
    }
    for (std::size_t i = 0; i < other.phases_.size(); ++i) {
      phases_[at + i].insert(phases_[at + i].end(), other.phases_[i].begin(),
                             other.phases_[i].end());
    }
  }

  /// Index of the next phase to add to (== current phase count).
  std::size_t next_phase() const { return phases_.size(); }

  /// Charges simulated wall-clock spent in retry backoff (transient-error
  /// absorption) to this plan. The event simulator adds it to the request's
  /// completion time after the final phase.
  void add_retry_delay(SimTime us) { retry_delay_us_ += us; }
  SimTime retry_delay_us() const { return retry_delay_us_; }

  const std::vector<std::vector<DeviceOp>>& phases() const { return phases_; }
  bool empty() const { return phases_.empty(); }
  void clear() {
    phases_.clear();
    retry_delay_us_ = 0;
  }

  std::size_t total_ops() const {
    std::size_t n = 0;
    for (const auto& ph : phases_) n += ph.size();
    return n;
  }

 private:
  std::vector<std::vector<DeviceOp>> phases_;
  SimTime retry_delay_us_ = 0;
};

/// Fork/join over one request's plan. Each of the N lanes records one
/// independent chain of device ops, in call order, from phase 0. join()
/// merges the lanes with each other from phase 0 and then into the parent
/// at the phase it had reached when the fork was made, so the lanes' retry
/// backoffs combine by max (see merge_parallel). The parent must not be
/// recorded into while the fork is open. After join() — called explicitly,
/// or at scope exit — every lane is the parent itself, so whatever a caller
/// records next runs serially behind the joined lanes. With no parent every
/// lane is null: the fork records nothing and allocates nothing.
template <std::size_t N>
class PlanFork {
 public:
  explicit PlanFork(IoPlan* parent)
      : parent_(parent), fork_phase_(parent ? parent->next_phase() : 0) {}
  PlanFork(const PlanFork&) = delete;
  PlanFork& operator=(const PlanFork&) = delete;
  ~PlanFork() { join(); }

  /// The plan lane `i` records into.
  IoPlan* lane(std::size_t i) {
    return parent_ == nullptr || joined_ ? parent_ : &lanes_[i];
  }

  IoPlan* parent() const { return parent_; }

  void join() {
    if (joined_) return;
    joined_ = true;
    if (parent_ == nullptr) return;
    for (std::size_t i = 1; i < N; ++i) lanes_[0].merge_parallel(lanes_[i]);
    parent_->merge_parallel(lanes_[0], fork_phase_);
  }

 private:
  IoPlan* parent_;
  std::size_t fork_phase_;
  bool joined_ = false;
  std::array<IoPlan, N> lanes_;
};

}  // namespace kdd
