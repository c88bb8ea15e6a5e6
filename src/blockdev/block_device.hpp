// Block device abstraction (data plane).
//
// All devices operate on fixed 4 KiB pages addressed by page-granular LBAs.
// Timing is deliberately separated from data: the discrete-event simulator
// (src/sim) attaches a timing model to each device, while the data plane here
// stores real bytes so that RAID parity, deltas and recovery can be verified
// end-to-end.
#pragma once

#include <cstdint>
#include <span>

#include "common/units.hpp"

namespace kdd {

/// Outcome of a single page I/O. The fault taxonomy follows field failure
/// data (docs/fault_model.md): beyond whole-device death, devices exhibit
/// latent sector errors, transient hiccups and silent corruption — and each
/// class wants a different recovery strategy in the layers above.
enum class IoStatus {
  kOk,
  kFailed,      ///< device has failed (whole-device loss) — no data transferred
  kMediaError,  ///< latent sector error: this page is unreadable until rewritten
  kTransient,   ///< transient error (timeout/UNIT ATTENTION): a retry may succeed
  kCorrupt,     ///< data WAS transferred but failed an integrity check (bit rot)
};

inline const char* to_string(IoStatus s) {
  switch (s) {
    case IoStatus::kOk: return "kOk";
    case IoStatus::kFailed: return "kFailed";
    case IoStatus::kMediaError: return "kMediaError";
    case IoStatus::kTransient: return "kTransient";
    case IoStatus::kCorrupt: return "kCorrupt";
  }
  return "?";
}

/// Per-device I/O counters (pages, not bytes).
struct DeviceCounters {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t trims = 0;

  std::uint64_t total() const { return reads + writes; }
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Reads one page at `page` into `out` (must be kPageSize bytes).
  virtual IoStatus read(Lba page, std::span<std::uint8_t> out) = 0;

  /// Writes one page at `page` from `data` (must be kPageSize bytes).
  virtual IoStatus write(Lba page, std::span<const std::uint8_t> data) = 0;

  /// Device capacity in pages.
  virtual std::uint64_t num_pages() const = 0;

  /// Marks the logical page as unused (no-op by default; SSDs use this to
  /// avoid garbage-collecting dead cache pages).
  virtual void trim(Lba page) {
    (void)page;
    ++counters_.trims;
  }

  /// Whole-device failure injection, uniform across all device types
  /// (memory-, file- and flash-backed): once failed, all I/O returns kFailed
  /// until repair() — or the type-specific replace(), which models swapping
  /// in a spare — clears the state.
  virtual void fail() { failed_ = true; }
  virtual void repair() { failed_ = false; }
  virtual bool failed() const { return failed_; }

  const DeviceCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

 protected:
  DeviceCounters counters_;
  bool failed_ = false;
};

}  // namespace kdd
