#include "blockdev/fault_device.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/check.hpp"
#include "common/kernels.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace kdd {

namespace {

/// Global-registry mirrors of FaultCounters, so fault activity shows up in
/// the Prometheus/JSONL exports without polling every decorator instance.
struct FaultMetrics {
  obs::Counter media_errors_injected;
  obs::Counter media_error_reads;
  obs::Counter media_errors_healed;
  obs::Counter transient_errors;
  obs::Counter torn_writes;
  obs::Counter bit_rot_injected;
  obs::Counter corruptions_detected;
  obs::Counter power_cut_rejects;
};

FaultMetrics& fault_metrics() {
  static FaultMetrics* m = [] {
    auto* fm = new FaultMetrics();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    fm->media_errors_injected =
        obs::Counter(&reg, "kdd_fault_media_errors_injected_total");
    fm->media_error_reads = obs::Counter(&reg, "kdd_fault_media_error_reads_total");
    fm->media_errors_healed =
        obs::Counter(&reg, "kdd_fault_media_errors_healed_total");
    fm->transient_errors = obs::Counter(&reg, "kdd_fault_transient_errors_total");
    fm->torn_writes = obs::Counter(&reg, "kdd_fault_torn_writes_total");
    fm->bit_rot_injected = obs::Counter(&reg, "kdd_fault_bit_rot_injected_total");
    fm->corruptions_detected =
        obs::Counter(&reg, "kdd_fault_corruptions_detected_total");
    fm->power_cut_rejects = obs::Counter(&reg, "kdd_fault_power_cut_rejects_total");
    return fm;
  }();
  return *m;
}

}  // namespace

FaultInjectingDevice::FaultInjectingDevice(BlockDevice* inner, FaultConfig config)
    : inner_(inner),
      config_(config),
      rng_(config.seed),
      rail_(std::make_shared<PowerRail>()) {
  KDD_CHECK(inner != nullptr);
}

std::uint64_t FaultInjectingDevice::page_checksum(std::span<const std::uint8_t> data) {
  // Models a T10-DIF-style tag: every single-bit flip and, with overwhelming
  // probability, every torn sector prefix leaves the stored value stale.
  return kern::page_hash(kern::kPageHashSeed, data);
}

void FaultInjectingDevice::attach_rail(std::shared_ptr<PowerRail> rail) {
  KDD_CHECK(rail != nullptr);
  rail_ = std::move(rail);
}

void FaultInjectingDevice::inject_media_error(Lba page) {
  KDD_CHECK(page < inner_->num_pages());
  if (media_errors_.insert(page).second) {
    ++fault_counters_.media_errors_injected;
    fault_metrics().media_errors_injected.inc();
    KDD_LOG(Debug, "fault: latent sector error injected page=%llu",
            static_cast<unsigned long long>(page));
  }
}

void FaultInjectingDevice::inject_bit_rot(Lba page, std::uint8_t xor_mask) {
  KDD_CHECK(page < inner_->num_pages());
  std::array<std::uint8_t, kPageSize> buf;
  const IoStatus st = inner_->read(page, buf);
  KDD_CHECK(st == IoStatus::kOk);
  for (auto& b : buf) b ^= xor_mask;
  KDD_CHECK(inner_->write(page, buf) == IoStatus::kOk);
  // Deliberately leave checksums_ stale: the corruption is silent.
  ++fault_counters_.bit_rot_injected;
  fault_metrics().bit_rot_injected.inc();
  KDD_LOG(Debug, "fault: bit rot injected page=%llu mask=0x%02x",
          static_cast<unsigned long long>(page), xor_mask);
}

void FaultInjectingDevice::arm_power_cut(std::uint64_t after_writes) {
  KDD_CHECK(after_writes != kNotArmed);
  cut_countdown_ = after_writes;
}

void FaultInjectingDevice::clear_faults() {
  media_errors_.clear();
  checksums_.clear();
}

IoStatus FaultInjectingDevice::read(Lba page, std::span<std::uint8_t> out) {
  KDD_CHECK(page < inner_->num_pages());
  if (!rail_->on()) {
    ++fault_counters_.power_cut_rejects;
    fault_metrics().power_cut_rejects.inc();
    return IoStatus::kFailed;
  }
  if (failed()) return IoStatus::kFailed;
  if (config_.transient_read_prob > 0.0 &&
      std::uniform_real_distribution<double>(0.0, 1.0)(rng_) <
          config_.transient_read_prob) {
    ++fault_counters_.transient_errors;
    fault_metrics().transient_errors.inc();
    return IoStatus::kTransient;
  }
  if (media_errors_.contains(page)) {
    ++fault_counters_.media_error_reads;
    fault_metrics().media_error_reads.inc();
    obs::flight_note(obs::FlightKind::kFault, "media_error_read",
                     static_cast<std::int64_t>(page));
    KDD_LOG(Info, "fault: read hit latent sector error page=%llu",
            static_cast<unsigned long long>(page));
    return IoStatus::kMediaError;
  }
  ++counters_.reads;
  const IoStatus st = inner_->read(page, out);
  if (st != IoStatus::kOk) return st;
  if (config_.verify_reads) {
    const auto it = checksums_.find(page);
    if (it != checksums_.end() && it->second != page_checksum(out)) {
      ++fault_counters_.corruptions_detected;
      fault_metrics().corruptions_detected.inc();
      obs::flight_note(obs::FlightKind::kFault, "checksum_mismatch",
                       static_cast<std::int64_t>(page));
      KDD_LOG(Warn, "fault: checksum mismatch (bit rot?) page=%llu",
              static_cast<unsigned long long>(page));
      return IoStatus::kCorrupt;  // data was transferred; caller may inspect
    }
  }
  return IoStatus::kOk;
}

IoStatus FaultInjectingDevice::do_torn_write(Lba page,
                                             std::span<const std::uint8_t> data) {
  // A power cut mid-write persists a sector-granular prefix of the new data;
  // the tail keeps the old contents. Each sector's own ECC is internally
  // consistent, so the device cannot detect the tear — only a higher-level
  // checksum (e.g. the metadata log's per-entry CRC) can.
  std::array<std::uint8_t, kPageSize> torn;
  const IoStatus old = inner_->read(page, torn);
  if (old != IoStatus::kOk) std::memset(torn.data(), 0, torn.size());
  const std::uint32_t sectors = kPageSize / kSectorSize;
  const std::uint32_t keep =
      std::uniform_int_distribution<std::uint32_t>(0, sectors - 1)(rng_);
  std::memcpy(torn.data(), data.data(), keep * kSectorSize);
  const IoStatus st = inner_->write(page, torn);
  if (st == IoStatus::kOk) {
    checksums_[page] = page_checksum(torn);
    ++media_writes_;
  }
  ++fault_counters_.torn_writes;
  fault_metrics().torn_writes.inc();
  last_torn_page_ = page;
  KDD_LOG(Warn, "fault: torn write page=%llu (power rail cut)",
          static_cast<unsigned long long>(page));
  obs::flight_note_and_dump(obs::FlightKind::kPowerCut, "torn_write",
                            static_cast<std::int64_t>(page));
  disarm_power_cut();
  rail_->cut();
  // The host never sees an ack for a torn write: the power died.
  return IoStatus::kFailed;
}

IoStatus FaultInjectingDevice::write(Lba page, std::span<const std::uint8_t> data) {
  KDD_CHECK(page < inner_->num_pages());
  KDD_CHECK(data.size() == kPageSize);
  if (!rail_->on()) {
    ++fault_counters_.power_cut_rejects;
    fault_metrics().power_cut_rejects.inc();
    return IoStatus::kFailed;
  }
  if (failed()) return IoStatus::kFailed;
  if (config_.transient_write_prob > 0.0 &&
      std::uniform_real_distribution<double>(0.0, 1.0)(rng_) <
          config_.transient_write_prob) {
    ++fault_counters_.transient_errors;
    fault_metrics().transient_errors.inc();
    return IoStatus::kTransient;
  }
  ++counters_.writes;
  if (cut_countdown_ != kNotArmed) {
    if (cut_countdown_ == 0) return do_torn_write(page, data);
    --cut_countdown_;
  }
  const IoStatus st = inner_->write(page, data);
  if (st != IoStatus::kOk) return st;
  ++media_writes_;
  checksums_[page] = page_checksum(data);
  if (media_errors_.erase(page) > 0) {
    ++fault_counters_.media_errors_healed;
    fault_metrics().media_errors_healed.inc();
    KDD_LOG(Info, "fault: latent sector error healed by rewrite page=%llu",
            static_cast<unsigned long long>(page));
  }
  return IoStatus::kOk;
}

void FaultInjectingDevice::trim(Lba page) {
  KDD_CHECK(page < inner_->num_pages());
  ++counters_.trims;
  if (!rail_->on() || failed()) return;
  media_errors_.erase(page);
  checksums_.erase(page);
  inner_->trim(page);
}

}  // namespace kdd
