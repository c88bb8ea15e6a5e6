// NVRAM-resident cache state (Section III-B/III-C): the delta staging buffer,
// the metadata buffer, and the metadata log's head/tail counters.
//
// In the paper these live in battery-backed RAM on the array controller, so
// they survive power failures while all DRAM structures (the primary map) are
// lost. We model that by having the NvramState object owned *outside* the
// cache instance: crash tests destroy the cache (losing the primary map) and
// hand the surviving NvramState to a fresh instance for recovery.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "cache/sets.hpp"
#include "common/check.hpp"
#include "common/units.hpp"
#include "compress/delta.hpp"

namespace kdd {

/// A delta parked in NVRAM before being packed into a DEZ page.
struct StagedDelta {
  Lba lba = kInvalidLba;          ///< RAID page the delta belongs to
  std::uint32_t daz_idx = 0;      ///< cache slot of the corresponding DAZ page
  std::uint32_t packed_size = 0;  ///< bytes when packed (payload + header)
  Delta blob;                     ///< real payload (prototype mode); empty in counter mode
};

/// FIFO staging buffer with write coalescing: only the newest delta per DAZ
/// page is kept (Section III-C).
class StagingBuffer {
 public:
  explicit StagingBuffer(std::size_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {
    KDD_CHECK(capacity_bytes_ >= kPageSize);
  }

  bool fits(std::uint32_t packed_size) const {
    return bytes_used_ + packed_size <= capacity_bytes_;
  }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  std::size_t bytes_used() const { return bytes_used_; }
  std::size_t capacity_bytes() const { return capacity_bytes_; }

  /// Inserts (coalescing an existing delta for the same page). The caller
  /// must ensure it fits after any coalesced removal — use put() only after
  /// erase()+fits() or when fits() holds.
  void put(StagedDelta d) {
    erase(d.lba);
    KDD_CHECK(fits(d.packed_size));
    bytes_used_ += d.packed_size;
    entries_.push_back(std::move(d));
  }

  const StagedDelta* find(Lba lba) const {
    for (const StagedDelta& d : entries_) {
      if (d.lba == lba) return &d;
    }
    return nullptr;
  }

  bool erase(Lba lba) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->lba == lba) {
        bytes_used_ -= it->packed_size;
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }

  /// Drains all staged deltas in FIFO order.
  std::vector<StagedDelta> take_all() {
    std::vector<StagedDelta> out(std::make_move_iterator(entries_.begin()),
                                 std::make_move_iterator(entries_.end()));
    entries_.clear();
    bytes_used_ = 0;
    return out;
  }

  const std::deque<StagedDelta>& entries() const { return entries_; }

 private:
  std::size_t capacity_bytes_;
  std::size_t bytes_used_ = 0;
  std::deque<StagedDelta> entries_;
};

/// One persistent mapping record (Figure 3). Serialises to 17 bytes: a
/// 16-byte payload plus a CRC-8 validity byte computed over the payload and
/// the owning log page's sequence number, so a torn log-page write (partial
/// sector prefix persisted) is detected and its tail discarded on replay.
struct MetadataEntry {
  Lba lba_raid = kInvalidLba;
  std::uint32_t daz_idx = 0;  ///< cache slot of the DAZ page ("lba_daz")
  PageState state = PageState::kFree;
  std::uint32_t dez_idx = CacheSets::kNone;  ///< DEZ slot holding the delta (kOld)
  std::uint16_t dez_off = 0;
  std::uint16_t dez_len = 0;

  static constexpr std::size_t kPayloadSize = 16;
  static constexpr std::size_t kSerializedSize = kPayloadSize + 1;  // + CRC-8
};

/// Mapping-table buffer in NVRAM, coalescing by DAZ slot (a newer entry for
/// the same cache page overwrites the older one, Section III-C).
class MetadataBuffer {
 public:
  explicit MetadataBuffer(std::size_t capacity_entries)
      : capacity_(capacity_entries) {
    KDD_CHECK(capacity_ > 0);
  }

  bool full() const { return entries_.size() >= capacity_; }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

  bool contains(std::uint32_t daz_idx) const { return index_.contains(daz_idx); }

  void put(const MetadataEntry& e) {
    const auto it = index_.find(e.daz_idx);
    if (it != index_.end()) {
      entries_[it->second] = e;
      return;
    }
    index_[e.daz_idx] = entries_.size();
    entries_.push_back(e);
  }

  std::vector<MetadataEntry> drain() {
    std::vector<MetadataEntry> out = std::move(entries_);
    entries_.clear();
    index_.clear();
    return out;
  }

  /// Removes and returns the `n` oldest entries (a log page that reached
  /// the media); the rest keep their order.
  std::vector<MetadataEntry> take_front(std::size_t n) {
    KDD_CHECK(n <= entries_.size());
    const auto cut = entries_.begin() + static_cast<std::ptrdiff_t>(n);
    std::vector<MetadataEntry> out(entries_.begin(), cut);
    entries_.erase(entries_.begin(), cut);
    index_.clear();
    for (std::size_t i = 0; i < entries_.size(); ++i) index_[entries_[i].daz_idx] = i;
    return out;
  }

  const std::vector<MetadataEntry>& entries() const { return entries_; }

 private:
  std::size_t capacity_;
  std::vector<MetadataEntry> entries_;
  std::unordered_map<std::uint32_t, std::size_t> index_;
};

/// Everything that survives a power failure.
struct NvramState {
  NvramState(std::size_t staging_bytes, std::size_t metadata_entries)
      : staging(staging_bytes), metadata(metadata_entries) {}

  StagingBuffer staging;
  MetadataBuffer metadata;
  std::uint64_t log_head = 0;  ///< monotonically increasing page counters;
  std::uint64_t log_tail = 0;  ///< physical slot = counter % partition_pages

  // Online-rebuild checkpoint (ISSUE 6): which disk was being rebuilt and how
  // far the cursor got, persisted by the RebuildEngine's checkpoint sink. A
  // crash mid-rebuild resumes from here instead of re-reconstructing
  // completed chunks (and without forgetting the array was degraded).
  std::uint32_t rebuild_disk = 0;
  std::uint64_t rebuild_cursor = 0;
  bool rebuild_active = false;
};

}  // namespace kdd
