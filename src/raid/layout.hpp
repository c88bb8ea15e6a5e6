// RAID address layout: maps array-logical page addresses to (disk, disk page)
// with rotating parity, and defines the *parity group* — the XOR-related set
// of one page per data disk plus parity page(s) — which is the unit the KDD
// cache aligns its sets to ("DAZ pages in the same parity stripe are mapped
// to the same cache set", Section III-B).
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace kdd {

enum class RaidLevel { kRaid0, kRaid5, kRaid6 };

/// Identifier of a parity group. Groups are numbered
/// stripe_row * chunk_pages + page_in_chunk, so consecutive logical pages in
/// the same chunk belong to consecutive groups.
using GroupId = std::uint64_t;

struct RaidGeometry {
  RaidLevel level = RaidLevel::kRaid5;
  std::uint32_t num_disks = 5;
  std::uint32_t chunk_pages = 16;  ///< 64 KiB chunks at 4 KiB pages (paper default)
  std::uint64_t disk_pages = 262144;

  std::uint32_t parity_disks() const {
    switch (level) {
      case RaidLevel::kRaid0: return 0;
      case RaidLevel::kRaid5: return 1;
      case RaidLevel::kRaid6: return 2;
    }
    return 0;
  }
  std::uint32_t data_disks() const { return num_disks - parity_disks(); }

  /// Small-write choice by disk reads: reconstruct-write reads the row-mates
  /// the caller did not `supply`, read-modify-write the old data plus every
  /// parity. Reconstruct-write only when there is parity to compute, the
  /// caller supplies a row-mate, and it reads strictly less; ties keep RMW.
  bool prefers_reconstruct_write(std::uint32_t supplied) const {
    const std::uint32_t rcw_reads = data_disks() - 1 - supplied;
    return parity_disks() > 0 && supplied > 0 && rcw_reads < 1 + parity_disks();
  }

  /// Usable array capacity in pages (whole stripe rows only).
  std::uint64_t data_pages() const {
    const std::uint64_t rows = disk_pages / chunk_pages;
    return rows * chunk_pages * data_disks();
  }
  std::uint64_t stripe_rows() const { return disk_pages / chunk_pages; }
  std::uint64_t num_groups() const { return stripe_rows() * chunk_pages; }
};

/// Physical location of one page.
struct DiskAddr {
  std::uint32_t disk = 0;
  Lba page = 0;
};

class RaidLayout {
 public:
  explicit RaidLayout(const RaidGeometry& geo);

  const RaidGeometry& geometry() const { return geo_; }

  /// Logical page -> physical location.
  DiskAddr map(Lba logical) const;

  /// Logical page -> parity group containing it.
  GroupId group_of(Lba logical) const;

  /// Index of the logical page within its group's data members (0..dd-1).
  std::uint32_t index_in_group(Lba logical) const;

  /// The logical page that sits at data index `idx` of group `g`.
  Lba group_member(GroupId g, std::uint32_t idx) const;

  /// Physical location of the P parity page of group `g` (RAID-5/6).
  DiskAddr parity_addr(GroupId g) const;

  /// Physical location of the Q parity page of group `g` (RAID-6 only).
  DiskAddr q_parity_addr(GroupId g) const;

  /// Disk holding P parity for a stripe row (left-symmetric rotation).
  std::uint32_t parity_disk(std::uint64_t stripe_row) const;
  std::uint32_t q_parity_disk(std::uint64_t stripe_row) const;

  /// Disk holding data index `idx` in a stripe row.
  std::uint32_t data_disk(std::uint64_t stripe_row, std::uint32_t idx) const;

 private:
  RaidGeometry geo_;
};

}  // namespace kdd
