// Memory-backed block device with failure injection. Models an HDD's data
// plane for the user-space RAID prototype; the HDD *timing* model lives in
// hdd_model.hpp.
#pragma once

#include <cstdint>

#include "blockdev/block_device.hpp"
#include "common/zero_mapping.hpp"

namespace kdd {

class MemBlockDevice final : public BlockDevice {
 public:
  explicit MemBlockDevice(std::uint64_t pages);

  IoStatus read(Lba page, std::span<std::uint8_t> out) override;
  IoStatus write(Lba page, std::span<const std::uint8_t> data) override;
  std::uint64_t num_pages() const override { return pages_; }

  /// Replaces the device with a blank one (models swapping in a spare disk).
  /// The old image's memory goes back to the kernel.
  void replace();

  /// Direct access for tests/scrubbing (bypasses failure state and counters).
  std::span<const std::uint8_t> raw_page(Lba page) const;
  void corrupt_page(Lba page, std::uint8_t xor_mask);

 private:
  std::uint64_t pages_;
  ZeroFillMapping data_;  ///< committed on first write
};

}  // namespace kdd
