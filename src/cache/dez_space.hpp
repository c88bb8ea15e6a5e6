// DezSpace: per-page extent accounting for the delta zone.
//
// The DEZ packs LZ-compressed deltas many-per-page. A DEZ page is filled
// first-fit at commit time and is write-once: afterwards it only ever
// *loses* bytes (invalidated deltas leave dead holes) until its valid count
// hits zero and the page returns to the DAZ. DezSpace keeps that state
// first-class instead of something a scan has to reconstruct: every DEZ page
// is an *extent* with a tail (bytes packed at commit), live bytes and dead
// bytes. KddCache::check_invariants cross-checks it against the slot
// mappings, recovery rebuilds it from the persistent mappings, and the
// live/dead totals feed the kdd_dez_* gauges and kdd_bench's dead share.
//
// DezSpace is pure bookkeeping over packed sizes: it never touches data and
// never draws randomness, so it behaves identically in counter mode and in
// the byte-accurate prototype.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace kdd {

class DezSpace {
 public:
  struct Extent {
    bool active = false;  ///< idx currently is a DEZ page
    std::uint32_t tail = 0;        ///< bytes packed into the page at commit
    std::uint32_t live_bytes = 0;  ///< packed bytes still referenced
    std::uint32_t live_count = 0;  ///< live deltas (mirrors slot valid_count)

    std::uint32_t dead_bytes() const { return tail - live_bytes; }
    std::uint32_t remaining() const {
      return tail >= kPageSize ? 0 : static_cast<std::uint32_t>(kPageSize) - tail;
    }
  };

  DezSpace() = default;

  /// Sizes the extent table for a cache of `pages` slots and clears all state.
  void reset(std::uint64_t pages);
  /// Drops every extent (SSD replacement: the whole delta zone is gone).
  void clear();

  // -- Extent lifecycle -------------------------------------------------------
  /// A fresh DEZ page: tail 0, no live bytes.
  void open_page(std::uint32_t idx);
  /// A packed delta of `len` bytes landed at the tail; returns its offset.
  std::uint32_t append(std::uint32_t idx, std::uint32_t len);
  /// A delta of `len` bytes was invalidated: live -> dead.
  void on_dead(std::uint32_t idx, std::uint32_t len);
  /// The page was reclaimed (valid count hit zero, or eviction).
  void on_free(std::uint32_t idx);
  /// Recovery: adopt an extent whose tail/live census was rebuilt from the
  /// persistent old-page mappings. The tail is the max mapped end offset, a
  /// lower bound on the bytes packed at commit.
  void restore_page(std::uint32_t idx, std::uint32_t tail,
                    std::uint32_t live_bytes, std::uint32_t live_count);

  // -- Introspection ----------------------------------------------------------
  bool tracked(std::uint32_t idx) const {
    return idx < extents_.size() && extents_[idx].active;
  }
  const Extent& extent(std::uint32_t idx) const { return extents_[idx]; }
  std::uint64_t pages() const { return active_pages_; }
  std::uint64_t live_bytes() const { return total_live_; }
  std::uint64_t dead_bytes() const { return total_dead_; }

 private:
  std::vector<Extent> extents_;
  std::uint64_t active_pages_ = 0;
  std::uint64_t total_live_ = 0;
  std::uint64_t total_dead_ = 0;
};

}  // namespace kdd
