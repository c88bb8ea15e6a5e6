// FaultInjectingDevice: a decorator wrapping any BlockDevice with seeded,
// scriptable partial faults — the fault classes that dominate field failure
// data but that whole-device failure injection (BlockDevice::fail) cannot
// express:
//
//   * latent sector errors   — a page is unreadable (kMediaError) until it is
//                              rewritten; a successful write heals it, which
//                              is exactly what RAID read-error repair does.
//   * transient errors       — with a configured probability an op fails with
//                              kTransient without touching the media; a retry
//                              (src/blockdev/retry.hpp) absorbs it.
//   * torn writes            — armed by a power-cut trigger: the Nth
//                              subsequent media write persists only a sector
//                              prefix of the new data, then the shared
//                              PowerRail drops and every device on it fails
//                              all I/O until power_restore().
//   * silent bit rot         — inject_bit_rot flips bits behind the
//                              checksum's back; with verify_reads enabled the
//                              per-page checksum (modelling T10-DIF / on-disk
//                              ECC) surfaces it as kCorrupt (data is still
//                              transferred so scrubbers can inspect it).
//
// Every fault class has a counter, so tests can assert not just that the
// stack survived, but that the intended healing path actually ran.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <unordered_map>
#include <unordered_set>

#include "blockdev/block_device.hpp"

namespace kdd {

/// Shared power domain. Several devices (e.g. all RAID disks plus the cache
/// SSD) attach to one rail; a torn write on any of them cuts power to all.
class PowerRail {
 public:
  bool on() const { return on_; }
  void cut() { on_ = false; }
  void restore() { on_ = true; }

 private:
  bool on_ = true;
};

struct FaultConfig {
  double transient_read_prob = 0.0;
  double transient_write_prob = 0.0;
  /// Verify a per-page checksum on every read; mismatches (bit rot, or writes
  /// that bypassed the decorator) surface as kCorrupt.
  bool verify_reads = false;
  std::uint64_t seed = 1;
};

struct FaultCounters {
  std::uint64_t media_errors_injected = 0;
  std::uint64_t media_error_reads = 0;    ///< reads that hit a latent sector error
  std::uint64_t media_errors_healed = 0;  ///< latent errors cleared by a rewrite
  std::uint64_t transient_errors = 0;     ///< injected transient failures
  std::uint64_t torn_writes = 0;          ///< power-cut partial page writes
  std::uint64_t bit_rot_injected = 0;
  std::uint64_t corruptions_detected = 0; ///< checksum mismatches -> kCorrupt
  std::uint64_t power_cut_rejects = 0;    ///< ops rejected while the rail is down
};

class FaultInjectingDevice final : public BlockDevice {
 public:
  /// Wraps `inner` (not owned). A private PowerRail is created; attach_rail
  /// replaces it to share one power domain across devices.
  explicit FaultInjectingDevice(BlockDevice* inner, FaultConfig config = {});

  IoStatus read(Lba page, std::span<std::uint8_t> out) override;
  IoStatus write(Lba page, std::span<const std::uint8_t> data) override;
  std::uint64_t num_pages() const override { return inner_->num_pages(); }
  void trim(Lba page) override;

  /// Whole-device failure forwards to the wrapped device so that code holding
  /// either handle observes a consistent state.
  void fail() override { inner_->fail(); }
  void repair() override { inner_->repair(); }
  bool failed() const override { return inner_->failed(); }

  // ---- Scriptable faults ----------------------------------------------------

  /// Marks `page` as a latent sector error: reads return kMediaError until a
  /// successful write to the page heals it.
  void inject_media_error(Lba page);

  /// Silently XORs `xor_mask` into every byte of the page on media, without
  /// updating the stored checksum — detectable only via verify_reads or
  /// parity cross-checks.
  void inject_bit_rot(Lba page, std::uint8_t xor_mask);

  /// Arms the power-cut trigger: `after_writes` subsequent media writes pass
  /// through normally, then the next one is torn (sector-prefix persisted)
  /// and the rail cuts.
  void arm_power_cut(std::uint64_t after_writes);
  void disarm_power_cut() { cut_countdown_ = kNotArmed; }
  bool power_cut_armed() const { return cut_countdown_ != kNotArmed; }

  void attach_rail(std::shared_ptr<PowerRail> rail);
  const std::shared_ptr<PowerRail>& rail() const { return rail_; }
  void power_restore() { rail_->restore(); }
  /// False while the shared rail is down (every op is being rejected). Lets
  /// long-running maintenance (rebuild, scrub) stop cleanly at a power cut
  /// instead of misreading the rejections as media loss.
  bool powered() const { return !rail_ || rail_->on(); }

  /// Forgets all per-page fault state (latent errors, checksums) — required
  /// after the media behind the decorator is swapped (disk replace/rebuild).
  void clear_faults();

  // ---- Introspection --------------------------------------------------------

  const FaultCounters& fault_counters() const { return fault_counters_; }
  std::uint64_t pending_media_errors() const { return media_errors_.size(); }
  /// Writes that reached the media (incl. the torn one). The torture harness
  /// uses this from a dry run to choose a uniform crash-point index.
  std::uint64_t media_writes() const { return media_writes_; }
  /// Page of the most recent torn write (kInvalidLba before any tear).
  Lba last_torn_page() const { return last_torn_page_; }

  BlockDevice* inner() { return inner_; }

 private:
  static constexpr std::uint64_t kNotArmed = ~0ull;
  static constexpr std::uint32_t kSectorSize = 512;

  static std::uint64_t page_checksum(std::span<const std::uint8_t> data);
  IoStatus do_torn_write(Lba page, std::span<const std::uint8_t> data);

  BlockDevice* inner_;
  FaultConfig config_;
  std::mt19937_64 rng_;
  std::shared_ptr<PowerRail> rail_;
  std::unordered_set<Lba> media_errors_;
  std::unordered_map<Lba, std::uint64_t> checksums_;
  std::uint64_t cut_countdown_ = kNotArmed;
  std::uint64_t media_writes_ = 0;
  Lba last_torn_page_ = kInvalidLba;
  FaultCounters fault_counters_;
};

}  // namespace kdd
