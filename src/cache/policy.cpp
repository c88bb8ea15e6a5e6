#include "cache/policy.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace kdd {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

CacheLayoutPlan plan_cache_layout(const PolicyConfig& config, bool needs_metadata) {
  CacheLayoutPlan plan;
  if (needs_metadata) {
    const auto by_fraction = static_cast<std::uint64_t>(
        config.metadata_fraction * static_cast<double>(config.ssd_pages) + 0.5);
    // The partition must be able to hold one live entry per cache slot with
    // GC slack, or the circular log livelocks (Section III-C notes the
    // trade-off). With 17 B checksummed entries (240 per 4 KiB page) and a
    // 0.9 GC threshold the floor works out to ~0.5 % of the SSD; smaller
    // requested fractions are clamped up to it.
    const std::uint64_t floor_pages = config.ssd_pages / 200 + 8;
    plan.metadata_pages = std::max<std::uint64_t>({by_fraction, floor_pages, 4});
  }
  KDD_CHECK(config.ssd_pages > plan.metadata_pages + config.ways);
  plan.cache_pages =
      (config.ssd_pages - plan.metadata_pages) / config.ways * config.ways;
  return plan;
}

BlockCacheBase::BlockCacheBase(const PolicyConfig& config, const RaidGeometry& geo,
                               std::uint64_t metadata_pages, std::uint64_t cache_pages)
    : config_(config),
      sets_(cache_pages, config.ways),
      ssd_(metadata_pages, cache_pages),
      raid_(geo) {}

BlockCacheBase::BlockCacheBase(const PolicyConfig& config, RaidArray* array,
                               SsdModel* ssd, std::uint64_t metadata_pages,
                               std::uint64_t cache_pages)
    : config_(config),
      sets_(cache_pages, config.ways),
      ssd_(metadata_pages, cache_pages, ssd),
      raid_(array) {}

CacheStats BlockCacheBase::stats() const {
  CacheStats s = stats_;
  ssd_.export_stats(s);
  s.disk_reads = raid_.disk_reads();
  s.disk_writes = raid_.disk_writes();
  return s;
}

std::uint32_t BlockCacheBase::set_for(Lba lba) const {
  const GroupId g = raid_.layout().group_of(lba);
  return static_cast<std::uint32_t>(mix64(g) % sets_.num_sets());
}

std::uint32_t BlockCacheBase::evict_lru_clean(std::uint32_t set) {
  const std::uint32_t victim = sets_.lru_tail(set);
  if (victim == CacheSets::kNone) return CacheSets::kNone;
  KDD_DCHECK(sets_.slot(victim).state == PageState::kClean);
  on_evict_slot(victim);
  ssd_.trim_data(victim);
  sets_.reset_slot(victim);
  return victim;
}

}  // namespace kdd
