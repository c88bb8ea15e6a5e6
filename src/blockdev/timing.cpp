#include "blockdev/timing.hpp"

#include <cmath>
#include <cstdlib>

#include "common/check.hpp"

namespace kdd {

HddTimingModel::HddTimingModel(const HddTimingConfig& config) : config_(config) {
  KDD_CHECK(config_.rpm > 0.0);
  KDD_CHECK(config_.transfer_mb_per_s > 0.0);
  revolution_us_ = static_cast<SimTime>(60.0 * 1e6 / config_.rpm);
  transfer_us_per_page_ = static_cast<SimTime>(
      static_cast<double>(kPageSize) / (config_.transfer_mb_per_s * 1e6) * 1e6);
}

SimTime HddTimingModel::service_time(IoKind kind, Lba page, std::uint32_t pages,
                                     Rng& rng) {
  (void)kind;  // reads and writes cost the same with the volatile cache off
  KDD_CHECK(pages >= 1);
  const SimTime transfer = transfer_us_per_page_ * pages;
  if (page == head_page_) {
    // Sequential continuation: the head is already positioned.
    head_page_ = page + pages;
    return transfer;
  }
  const std::uint64_t distance =
      page > head_page_ ? page - head_page_ : head_page_ - page;
  const double frac = std::sqrt(
      std::min(1.0, static_cast<double>(distance) /
                        static_cast<double>(config_.capacity_pages)));
  const SimTime seek =
      config_.track_to_track_seek_us +
      static_cast<SimTime>(frac * static_cast<double>(config_.full_stroke_seek_us -
                                                      config_.track_to_track_seek_us));
  const SimTime rotation = rng.next_below(revolution_us_);
  head_page_ = page + pages;
  return seek + rotation + transfer;
}

SimTime SsdTimingModel::service_time(IoKind kind, Rng& rng) const {
  const SimTime base = kind == IoKind::kRead ? config_.read_us : config_.program_us;
  const SimTime jitter = config_.jitter_us ? rng.next_below(config_.jitter_us) : 0;
  return base + jitter;
}

}  // namespace kdd
