#include "blockdev/file_device.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/check.hpp"

namespace kdd {

FileBlockDevice::FileBlockDevice(const std::string& path, std::uint64_t pages)
    : path_(path), pages_(pages) {
  KDD_CHECK(pages_ > 0);
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("FileBlockDevice: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  if (::ftruncate(fd_, static_cast<off_t>(pages_ * kPageSize)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("FileBlockDevice: cannot size " + path);
  }
}

FileBlockDevice::~FileBlockDevice() {
  if (fd_ >= 0) ::close(fd_);
}

IoStatus FileBlockDevice::read(Lba page, std::span<std::uint8_t> out) {
  KDD_CHECK(page < pages_);
  KDD_CHECK(out.size() == kPageSize);
  if (failed_) return IoStatus::kFailed;
  ++counters_.reads;
  std::size_t done = 0;
  while (done < kPageSize) {
    const ssize_t n = ::pread(fd_, out.data() + done, kPageSize - done,
                              static_cast<off_t>(page * kPageSize + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kFailed;
    }
    if (n == 0) {  // past EOF of a sparse region: zeros
      std::memset(out.data() + done, 0, kPageSize - done);
      break;
    }
    done += static_cast<std::size_t>(n);
  }
  return IoStatus::kOk;
}

IoStatus FileBlockDevice::write(Lba page, std::span<const std::uint8_t> data) {
  KDD_CHECK(page < pages_);
  KDD_CHECK(data.size() == kPageSize);
  if (failed_) return IoStatus::kFailed;
  ++counters_.writes;
  std::size_t done = 0;
  while (done < kPageSize) {
    const ssize_t n = ::pwrite(fd_, data.data() + done, kPageSize - done,
                               static_cast<off_t>(page * kPageSize + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kFailed;
    }
    done += static_cast<std::size_t>(n);
  }
  return IoStatus::kOk;
}

void FileBlockDevice::trim(Lba page) {
  KDD_CHECK(page < pages_);
  ++counters_.trims;
  if (failed_ || fd_ < 0) return;
#ifdef FALLOC_FL_PUNCH_HOLE
  if (::fallocate(fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                  static_cast<off_t>(page * kPageSize),
                  static_cast<off_t>(kPageSize)) == 0) {
    return;
  }
#endif
  // Fallback (filesystem without hole punching): explicit zero write so the
  // trimmed page still reads back as zeros.
  static const std::uint8_t zeros[kPageSize] = {};
  std::size_t done = 0;
  while (done < kPageSize) {
    const ssize_t n = ::pwrite(fd_, zeros + done, kPageSize - done,
                               static_cast<off_t>(page * kPageSize + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    done += static_cast<std::size_t>(n);
  }
}

bool FileBlockDevice::sync() {
  if (failed_ || fd_ < 0) return false;
  return ::fsync(fd_) == 0;
}

}  // namespace kdd
