// File-backed block device: the same interface as MemBlockDevice but with
// contents persisted to a regular file via pread/pwrite, so example
// deployments survive process restarts. Pages never written read as zeros
// (the file is sparse).
#pragma once

#include <string>

#include "blockdev/block_device.hpp"

namespace kdd {

class FileBlockDevice final : public BlockDevice {
 public:
  /// Opens (or creates) `path` sized for `pages` pages. Throws
  /// std::runtime_error if the file cannot be opened.
  FileBlockDevice(const std::string& path, std::uint64_t pages);
  ~FileBlockDevice() override;

  FileBlockDevice(const FileBlockDevice&) = delete;
  FileBlockDevice& operator=(const FileBlockDevice&) = delete;

  IoStatus read(Lba page, std::span<std::uint8_t> out) override;
  IoStatus write(Lba page, std::span<const std::uint8_t> data) override;
  std::uint64_t num_pages() const override { return pages_; }

  /// Deallocates the page's file extent (punch-hole where supported, else an
  /// explicit zero write), so trimmed pages read back as zeros — the same
  /// observable behaviour MemBlockDevice::replace gives a blank disk.
  void trim(Lba page) override;

  /// Flushes dirty file pages to stable storage (fsync).
  bool sync();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::uint64_t pages_;
  int fd_ = -1;
};

}  // namespace kdd
