// Device service-time models for the discrete-event simulator.
//
// Calibrated to the paper's testbed class: 7,200 RPM SATA disks (look-ahead
// and volatile write cache disabled via hdparm, Section IV-B1) and a SATA
// MLC SSD with multi-channel internal parallelism.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace kdd {

enum class IoKind { kRead, kWrite };

/// 7,200 RPM disk: seek (distance-dependent), rotational latency
/// (uniform in one revolution; sequential hits skip both), transfer.
struct HddTimingConfig {
  double rpm = 7200.0;
  SimTime track_to_track_seek_us = 800;
  SimTime full_stroke_seek_us = 16000;
  double transfer_mb_per_s = 130.0;
  std::uint64_t capacity_pages = 262144ull * 1024;  ///< 1 TB at 4 KiB
};

class HddTimingModel {
 public:
  explicit HddTimingModel(const HddTimingConfig& config);

  /// Service time for an access of `pages` pages at `page`; advances the
  /// modelled head position.
  SimTime service_time(IoKind kind, Lba page, std::uint32_t pages, Rng& rng);

  void reset() { head_page_ = 0; }

 private:
  HddTimingConfig config_;
  Lba head_page_ = 0;
  SimTime revolution_us_;
  SimTime transfer_us_per_page_;
};

/// SSD: fixed-ish read/program latencies with small jitter; the simulator
/// models channel parallelism by running `channels` independent servers.
struct SsdTimingConfig {
  SimTime read_us = 90;
  SimTime program_us = 250;
  SimTime jitter_us = 15;
  std::uint32_t channels = 8;
};

class SsdTimingModel {
 public:
  explicit SsdTimingModel(const SsdTimingConfig& config) : config_(config) {}

  SimTime service_time(IoKind kind, Rng& rng) const;

  const SsdTimingConfig& config() const { return config_; }

 private:
  SsdTimingConfig config_;
};

}  // namespace kdd
