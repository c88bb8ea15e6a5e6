// Ghost window for LARC-style lazy admission (Huang et al., MSST'13 — cited
// in Section V-C as complementary to KDD). The window remembers the last
// `capacity` missed addresses without caching their data; a page is admitted
// into the real cache only on its second miss within the window, which
// filters one-touch traffic and cuts allocation writes on the SSD.
//
// A ring of addresses in miss order plus an open-addressed (linear probing)
// index from address to ring position. A hit consumes its entry and leaves a
// hole that ages out with the ring. Storage grows on first use, up to the
// capacity, and nothing is allocated per miss after that.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"

namespace kdd {

class GhostLru {
 public:
  explicit GhostLru(std::size_t capacity) : capacity_(capacity) {
    KDD_CHECK(capacity_ > 0 && capacity_ < kEmpty);
  }

  /// Called on a cache miss for `lba`. Returns true if the address was in
  /// the window (=> admit it; the entry is consumed); otherwise records it
  /// and returns false (=> do not admit yet).
  bool touch_and_check(Lba lba) {
    if (take(lba)) return true;
    push(lba);
    return false;
  }

  /// Records `lba` unless the window already holds it (a page the cache
  /// let go of: its next miss admits it).
  void remember(Lba lba) {
    if (find(lba) == kAbsent) push(lba);
  }

  /// Drops an address (used when the page got admitted through another path).
  void erase(Lba lba) { take(lba); }

  std::size_t size() const { return live_; }
  std::size_t capacity() const { return capacity_; }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  std::size_t home(Lba lba) const {
    return static_cast<std::size_t>((lba * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// Index slot whose ring entry is `lba`, or kAbsent.
  std::size_t find(Lba lba) const {
    if (index_.empty()) return kAbsent;
    const std::size_t mask = index_.size() - 1;
    for (std::size_t i = home(lba); index_[i] != kEmpty; i = (i + 1) & mask) {
      if (ring_[index_[i]] == lba) return i;
    }
    return kAbsent;
  }

  bool take(Lba lba) {
    const std::size_t i = find(lba);
    if (i == kAbsent) return false;
    ring_[index_[i]] = kInvalidLba;
    unindex(i);
    return true;
  }

  void push(Lba lba) {
    std::size_t pos = ring_.size();
    if (pos < capacity_) {
      if (pos == ring_.capacity()) {
        ring_.reserve(std::min(capacity_, std::max<std::size_t>(64, 2 * pos)));
      }
      ring_.push_back(kInvalidLba);
    } else {
      pos = oldest_;
      oldest_ = oldest_ + 1 == capacity_ ? 0 : oldest_ + 1;
      if (ring_[pos] != kInvalidLba) {
        unindex(find(ring_[pos]));
        ring_[pos] = kInvalidLba;
      }
    }
    if (2 * (live_ + 1) > index_.size()) grow_index();
    ring_[pos] = lba;
    const std::size_t mask = index_.size() - 1;
    std::size_t i = home(lba);
    while (index_[i] != kEmpty) i = (i + 1) & mask;
    index_[i] = static_cast<std::uint32_t>(pos);
    ++live_;
  }

  /// Empties index slot `i`, shifting later members of its probe run back.
  void unindex(std::size_t i) {
    const std::size_t mask = index_.size() - 1;
    for (std::size_t j = (i + 1) & mask; index_[j] != kEmpty; j = (j + 1) & mask) {
      const std::size_t k = home(ring_[index_[j]]);
      // The entry at j may move to i unless its home lies cyclically in (i, j].
      const bool stays = i <= j ? (i < k && k <= j) : (i < k || k <= j);
      if (stays) continue;
      index_[i] = index_[j];
      i = j;
    }
    index_[i] = kEmpty;
    --live_;
  }

  /// Doubles the index (load factor stays at most 1/2) and reinserts.
  void grow_index() {
    const std::size_t size = std::max<std::size_t>(64, 2 * index_.size());
    shift_ = 64;
    for (std::size_t s = size; s > 1; s >>= 1) --shift_;
    index_.assign(size, kEmpty);
    const std::size_t mask = size - 1;
    for (std::size_t pos = 0; pos < ring_.size(); ++pos) {
      if (ring_[pos] == kInvalidLba) continue;
      std::size_t i = home(ring_[pos]);
      while (index_[i] != kEmpty) i = (i + 1) & mask;
      index_[i] = static_cast<std::uint32_t>(pos);
    }
  }

  std::size_t capacity_;
  std::vector<Lba> ring_;  ///< misses in order; kInvalidLba = consumed
  std::size_t oldest_ = 0;  ///< once the ring is full: the next overwrite
  std::vector<std::uint32_t> index_;  ///< ring positions, or kEmpty
  unsigned shift_ = 64;  ///< 64 - log2(index_.size())
  std::size_t live_ = 0;
};

}  // namespace kdd
