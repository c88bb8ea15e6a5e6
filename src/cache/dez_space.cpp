#include "cache/dez_space.hpp"

#include "common/check.hpp"

namespace kdd {

void DezSpace::reset(std::uint64_t pages) {
  extents_.assign(pages, Extent{});
  active_pages_ = 0;
  total_live_ = total_dead_ = 0;
}

void DezSpace::clear() { reset(extents_.size()); }

void DezSpace::open_page(std::uint32_t idx) {
  KDD_CHECK(idx < extents_.size());
  Extent& e = extents_[idx];
  KDD_CHECK(!e.active);
  e = Extent{};
  e.active = true;
  ++active_pages_;
}

std::uint32_t DezSpace::append(std::uint32_t idx, std::uint32_t len) {
  Extent& e = extents_[idx];
  KDD_CHECK(e.active);
  KDD_CHECK(e.tail + len <= kPageSize);
  const std::uint32_t off = e.tail;
  e.tail += len;
  e.live_bytes += len;
  ++e.live_count;
  total_live_ += len;
  return off;
}

void DezSpace::on_dead(std::uint32_t idx, std::uint32_t len) {
  Extent& e = extents_[idx];
  KDD_CHECK(e.active);
  KDD_CHECK(e.live_bytes >= len && e.live_count > 0);
  e.live_bytes -= len;
  --e.live_count;
  total_live_ -= len;
  total_dead_ += len;
}

void DezSpace::on_free(std::uint32_t idx) {
  Extent& e = extents_[idx];
  KDD_CHECK(e.active);
  total_live_ -= e.live_bytes;
  total_dead_ -= e.dead_bytes();
  --active_pages_;
  e = Extent{};
}

void DezSpace::restore_page(std::uint32_t idx, std::uint32_t tail,
                            std::uint32_t live_bytes, std::uint32_t live_count) {
  KDD_CHECK(idx < extents_.size());
  Extent& e = extents_[idx];
  KDD_CHECK(!e.active);
  KDD_CHECK(live_bytes <= tail && tail <= kPageSize);
  e = Extent{};
  e.active = true;
  e.tail = tail;
  e.live_bytes = live_bytes;
  e.live_count = live_count;
  ++active_pages_;
  total_live_ += live_bytes;
  total_dead_ += tail - live_bytes;
}

}  // namespace kdd
