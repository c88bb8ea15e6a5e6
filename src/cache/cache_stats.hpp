// Cache statistics: hit ratios and the SSD write-traffic breakdown that the
// paper's Figures 4-8 and 11 report.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace kdd {

/// Why a page was written to the SSD. The sum over kinds is the cache write
/// traffic; the paper's lifetime argument is that KDD shrinks kDeltaCommit +
/// kWriteUpdate + kMetadata relative to WT/LeavO.
enum class SsdWriteKind : std::uint8_t {
  kReadFill,     ///< allocation on a read miss
  kWriteAlloc,   ///< allocation on a write miss
  kWriteUpdate,  ///< full-page update of an already-cached page (WT/LeavO)
  kDeltaCommit,  ///< packed delta page committed to the DEZ (KDD)
  kMetadata,     ///< persistent cache metadata
  /// Live deltas moved between DEZ pages. No code path writes it since the
  /// delta-zone GC was removed; the kind stays because its name is a
  /// published schema field (benchmark/kdd_bench.cpp reports
  /// cache.ssd_writes.gc_relocate_per_write, now always 0).
  kGcRelocate,
};
inline constexpr int kNumSsdWriteKinds = 6;

/// Stable lower_snake names for the kinds ("read_fill", ...). Used as metric
/// labels and JSONL field suffixes, so renames are schema changes.
inline const char* ssd_write_kind_name(SsdWriteKind k) {
  switch (k) {
    case SsdWriteKind::kReadFill: return "read_fill";
    case SsdWriteKind::kWriteAlloc: return "write_alloc";
    case SsdWriteKind::kWriteUpdate: return "write_update";
    case SsdWriteKind::kDeltaCommit: return "delta_commit";
    case SsdWriteKind::kMetadata: return "metadata";
    case SsdWriteKind::kGcRelocate: return "gc_relocate";
  }
  return "?";
}

struct CacheStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t write_bypasses = 0;  ///< writes that could not be cached

  std::uint64_t ssd_reads = 0;
  std::uint64_t ssd_writes[kNumSsdWriteKinds] = {};

  std::uint64_t disk_reads = 0;   ///< RAID device page reads
  std::uint64_t disk_writes = 0;  ///< RAID device page writes

  std::uint64_t cleanings = 0;          ///< cleaning passes run
  std::uint64_t groups_cleaned = 0;     ///< parity groups brought up to date
  std::uint64_t log_gc_passes = 0;      ///< metadata-log garbage collections

  /// Element-wise sum: every field of `other` is added to this. Used to
  /// aggregate ConcurrentCache's per-stripe shard stats into one view
  /// without holding the policy mutex while shards keep recording.
  void merge(const CacheStats& other) {
    read_hits += other.read_hits;
    read_misses += other.read_misses;
    write_hits += other.write_hits;
    write_misses += other.write_misses;
    write_bypasses += other.write_bypasses;
    ssd_reads += other.ssd_reads;
    for (int k = 0; k < kNumSsdWriteKinds; ++k) ssd_writes[k] += other.ssd_writes[k];
    disk_reads += other.disk_reads;
    disk_writes += other.disk_writes;
    cleanings += other.cleanings;
    groups_cleaned += other.groups_cleaned;
    log_gc_passes += other.log_gc_passes;
  }

  std::uint64_t total_ssd_writes() const {
    std::uint64_t n = 0;
    for (std::uint64_t w : ssd_writes) n += w;
    return n;
  }
  std::uint64_t metadata_ssd_writes() const {
    return ssd_writes[static_cast<int>(SsdWriteKind::kMetadata)];
  }
  std::uint64_t write_traffic_bytes() const { return total_ssd_writes() * kPageSize; }

  std::uint64_t requests() const {
    return read_hits + read_misses + write_hits + write_misses + write_bypasses;
  }
  /// Overall hit ratio as the paper reports it (reads + writes).
  double hit_ratio() const {
    const std::uint64_t total = requests();
    return total ? static_cast<double>(read_hits + write_hits) /
                       static_cast<double>(total)
                 : 0.0;
  }
  double read_hit_ratio() const {
    const std::uint64_t total = read_hits + read_misses;
    return total ? static_cast<double>(read_hits) / static_cast<double>(total) : 0.0;
  }
};

}  // namespace kdd
