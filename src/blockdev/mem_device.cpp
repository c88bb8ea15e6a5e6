#include "blockdev/mem_device.hpp"

#include <cstring>

#include "common/check.hpp"

namespace kdd {

MemBlockDevice::MemBlockDevice(std::uint64_t pages)
    : pages_(pages), data_(pages * kPageSize) {
  KDD_CHECK(pages > 0);
}

IoStatus MemBlockDevice::read(Lba page, std::span<std::uint8_t> out) {
  KDD_CHECK(page < pages_);
  KDD_CHECK(out.size() == kPageSize);
  if (failed_) return IoStatus::kFailed;
  ++counters_.reads;
  std::memcpy(out.data(), data_.data() + page * kPageSize, kPageSize);
  return IoStatus::kOk;
}

IoStatus MemBlockDevice::write(Lba page, std::span<const std::uint8_t> data) {
  KDD_CHECK(page < pages_);
  KDD_CHECK(data.size() == kPageSize);
  if (failed_) return IoStatus::kFailed;
  ++counters_.writes;
  std::memcpy(data_.data() + page * kPageSize, data.data(), kPageSize);
  return IoStatus::kOk;
}

void MemBlockDevice::replace() {
  data_.release();
  failed_ = false;
}

std::span<const std::uint8_t> MemBlockDevice::raw_page(Lba page) const {
  KDD_CHECK(page < pages_);
  return {data_.data() + page * kPageSize, kPageSize};
}

void MemBlockDevice::corrupt_page(Lba page, std::uint8_t xor_mask) {
  KDD_CHECK(page < pages_);
  std::uint8_t* p = data_.data() + page * kPageSize;
  for (std::uint32_t i = 0; i < kPageSize; ++i) p[i] ^= xor_mask;
}

}  // namespace kdd
