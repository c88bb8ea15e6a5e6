// Zero-fill-on-demand memory for emulated media images.
//
// A run often writes only part of a simulated disk or flash array, yet a
// zero-filled std::vector commits (and pays the kernel to zero) every byte of
// it at construction. ZeroFillMapping owns an anonymous private mapping
// instead: building one costs O(1) in its size, a page reads as zeros and
// commits no memory until it is first written, and release() hands every
// committed page back to the kernel, after which the whole range reads as
// zeros again. It is an mmap rather than calloc because calloc avoids the
// zero-fill only when glibc's dynamic mmap threshold happens to allow it.
//
// Memory is committed one base page at a time: the mapping opts out of
// transparent huge pages, so one written page never commits 2 MiB.
#pragma once

#include <cstddef>
#include <cstdint>

namespace kdd {

class ZeroFillMapping {
 public:
  ZeroFillMapping() = default;
  /// Maps `bytes` of zero-reading memory. Throws std::bad_alloc when the
  /// address space cannot be reserved.
  explicit ZeroFillMapping(std::size_t bytes);
  ~ZeroFillMapping();

  ZeroFillMapping(ZeroFillMapping&& other) noexcept;
  ZeroFillMapping& operator=(ZeroFillMapping&& other) noexcept;
  ZeroFillMapping(const ZeroFillMapping&) = delete;
  ZeroFillMapping& operator=(const ZeroFillMapping&) = delete;

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }

  /// Returns every committed page to the kernel (MADV_DONTNEED); the whole
  /// range reads as zeros afterwards and commits memory only on new writes.
  void release();

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace kdd
