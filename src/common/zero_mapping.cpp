#include "common/zero_mapping.hpp"

#include <sys/mman.h>

#include <new>
#include <utility>

#include "common/check.hpp"

namespace kdd {

ZeroFillMapping::ZeroFillMapping(std::size_t bytes) : size_(bytes) {
  if (bytes == 0) return;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_NOHUGEPAGE
  (void)::madvise(p, bytes, MADV_NOHUGEPAGE);  // advisory; see the header
#endif
  data_ = static_cast<std::uint8_t*>(p);
}

ZeroFillMapping::~ZeroFillMapping() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

ZeroFillMapping::ZeroFillMapping(ZeroFillMapping&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

ZeroFillMapping& ZeroFillMapping::operator=(ZeroFillMapping&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void ZeroFillMapping::release() {
  // On a private anonymous mapping, MADV_DONTNEED drops the pages and later
  // accesses fault in fresh zero-filled ones.
  if (data_ != nullptr) KDD_CHECK(::madvise(data_, size_, MADV_DONTNEED) == 0);
}

}  // namespace kdd
