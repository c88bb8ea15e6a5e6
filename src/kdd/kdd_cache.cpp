#include "kdd/kdd_cache.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/check.hpp"
#include "common/page_arena.hpp"
#include "obs/health.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace kdd {

namespace {

CacheLayoutPlan kdd_layout(const PolicyConfig& config) {
  return plan_cache_layout(config, /*needs_metadata=*/true);
}

/// Global-registry mirrors of KDD's self-healing counters (the per-instance
/// members stay authoritative for tests; these feed the exporters).
struct KddMetrics {
  obs::Counter media_fallbacks;
  obs::Counter delta_fallbacks;
  obs::Counter groups_healed;
  obs::Counter recoveries;
  obs::Counter degraded_cache_hits;   ///< lost pages served from cache
  obs::Counter degraded_delta_folds;  ///< fold-then-retry degraded recoveries
  obs::Histogram destage_batch_groups;  ///< groups per committed destage batch
  // Delta zone (kdd_dez_*): occupancy/fragmentation gauges plus the
  // boundary-adaptation activity counter.
  obs::Counter boundary_moves;
  obs::Gauge dez_live_bytes;
  obs::Gauge dez_dead_bytes;
  obs::Gauge dez_boundary_pages;
  obs::Gauge dez_spare_pages;
};

KddMetrics& kdd_metrics() {
  static KddMetrics* m = [] {
    auto* km = new KddMetrics();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    km->media_fallbacks = obs::Counter(&reg, "kdd_media_fallbacks_total");
    km->delta_fallbacks = obs::Counter(&reg, "kdd_delta_fallbacks_total");
    km->groups_healed = obs::Counter(&reg, "kdd_groups_healed_total");
    km->recoveries = obs::Counter(&reg, "kdd_recoveries_total");
    km->degraded_cache_hits =
        obs::Counter(&reg, "kdd_degraded_cache_hits_total");
    km->degraded_delta_folds =
        obs::Counter(&reg, "kdd_degraded_delta_folds_total");
    km->destage_batch_groups =
        obs::Histogram(&reg, "kdd_destage_batch_groups");
    km->boundary_moves = obs::Counter(&reg, "kdd_dez_boundary_moves_total");
    km->dez_live_bytes = obs::Gauge(&reg, "kdd_dez_live_bytes");
    km->dez_dead_bytes = obs::Gauge(&reg, "kdd_dez_dead_bytes");
    km->dez_boundary_pages = obs::Gauge(&reg, "kdd_dez_boundary_pages");
    km->dez_spare_pages = obs::Gauge(&reg, "kdd_dez_spare_pages");
    return km;
  }();
  return *m;
}

}  // namespace

KddCache::KddCache(const PolicyConfig& config, const RaidGeometry& geo,
                   NvramState* nvram)
    : BlockCacheBase(config, geo, kdd_layout(config).metadata_pages,
                     kdd_layout(config).cache_pages),
      owned_nvram_(nvram ? nullptr
                         : std::make_unique<NvramState>(config.staging_buffer_bytes,
                                                        config.metadata_buffer_entries)),
      nvram_(nvram ? nvram : owned_nvram_.get()),
      log_(&ssd_, nvram_, &sets_, config.log_gc_threshold),
      sampler_(GaussianRatioSampler::for_mean(config.delta_ratio_mean)),
      rng_(config.seed) {
  if (config.selective_admission) {
    ghost_ = std::make_unique<GhostLru>(sets_.pages());
  }
  dez_space_.reset(sets_.pages());
  comp_ewma_ = config.delta_ratio_mean;
  if (config.adaptive_boundary) {
    boundary_ghost_ = std::make_unique<GhostLru>(sets_.pages());
    dez_limit_pages_ = boundary_target_pages();
  }
  refresh_dez_gauges();
  if (config.segment_staging) {
    setup_segment_staging();
    ssd_.activate_segment_staging();  // counter mode: nothing to recover
  }
}

KddCache::KddCache(const PolicyConfig& config, RaidArray* array, SsdModel* ssd,
                   NvramState* nvram, bool do_recover)
    : BlockCacheBase(config, array, ssd, kdd_layout(config).metadata_pages,
                     kdd_layout(config).cache_pages),
      owned_nvram_(nvram ? nullptr
                         : std::make_unique<NvramState>(config.staging_buffer_bytes,
                                                        config.metadata_buffer_entries)),
      nvram_(nvram ? nvram : owned_nvram_.get()),
      log_(&ssd_, nvram_, &sets_, config.log_gc_threshold),
      sampler_(GaussianRatioSampler::for_mean(config.delta_ratio_mean)),
      rng_(config.seed) {
  if (config.selective_admission) {
    ghost_ = std::make_unique<GhostLru>(sets_.pages());
  }
  dez_space_.reset(sets_.pages());
  comp_ewma_ = config.delta_ratio_mean;
  if (config.adaptive_boundary) {
    boundary_ghost_ = std::make_unique<GhostLru>(sets_.pages());
    dez_limit_pages_ = boundary_target_pages();
  }
  // Staging is enabled (so recover() can replay the in-flight segment) but
  // only activated once the cache state is consistent: recovery's own reads
  // and healing writes must hit the device directly.
  if (config.segment_staging) setup_segment_staging();
  if (do_recover) recover();
  if (config.segment_staging) ssd_.activate_segment_staging();
  refresh_dez_gauges();
}

KddCache::~KddCache() {
  // The engine outlives the cache in crash/recovery rigs; drop the hooks that
  // point into this instance.
  if (rebuild_) {
    rebuild_->set_stripe_barrier(nullptr);
    rebuild_->set_checkpoint_sink(nullptr);
  }
}

void KddCache::setup_segment_staging() {
  const CacheLayoutPlan plan = kdd_layout(config_);
  SegmentConfig sc;
  sc.segment_pages = config_.segment_pages;
  sc.ring_pages = plan.segment_ring_pages;
  sc.ring_base = plan.metadata_pages + plan.cache_pages;
  ssd_.enable_segment_staging(sc, &nvram_->segment_seq);
}

void KddCache::bind_rebuild_engine(RebuildEngine* engine) {
  KDD_CHECK(engine == nullptr || raid_.real());
  rebuild_ = engine;
  if (engine == nullptr) return;
  engine->set_stripe_barrier([this](GroupId begin, GroupId end) {
    return destage_range(begin, end, nullptr);
  });
  engine->set_checkpoint_sink([this](const RebuildCheckpoint& cp) {
    nvram_->rebuild_disk = cp.disk;
    nvram_->rebuild_cursor = cp.cursor;
    nvram_->rebuild_active = cp.active;
  });
}

bool KddCache::handle_disk_failure_online(std::uint32_t disk) {
  KDD_CHECK(raid_.real());
  KDD_CHECK(rebuild_ != nullptr);
  const obs::TraceContextScope trace(obs::Stage::kRecovery, /*always_sample=*/true);
  KDD_LOG(Info, "disk %u failed: degraded mode, online rebuild", disk);
  return rebuild_->on_disk_failure(disk);
}

bool KddCache::destage_range(GroupId begin, GroupId end, IoPlan* plan) {
  std::vector<GroupId> in_range;
  for (const auto& [g, n] : dirty_groups_) {
    if (g >= begin && g < end) in_range.push_back(g);
  }
  bool all_clear = true;
  for (const GroupId g : in_range) {
    if (!dirty_groups_.contains(g)) continue;  // cleaned by an earlier fold
    if (claimed_groups_.contains(g)) {
      // In-flight destage claim (cleaner pool): the claim owner will fold it;
      // tell the engine to retry this window on the next pump.
      all_clear = false;
      continue;
    }
    if (!clean_group(g, plan)) all_clear = false;
  }
  // Stripe barrier contract: the rebuild engine is about to trust the SSD
  // contents for this window, so nothing may linger in the RAM segment.
  ssd_.force_seal(plan);
  return all_clear;
}

bool KddCache::page_down(Lba lba) {
  return raid_.real() && raid_.array()->page_down(lba);
}

bool KddCache::admit(Lba lba) {
  if (!ghost_) return true;
  return ghost_->touch_and_check(lba);
}

void KddCache::note_media_fallback(const char* what) {
  ++media_fallbacks_;
  kdd_metrics().media_fallbacks.inc();
  KDD_LOG(Debug, "media fallback: %s", what);
}

void KddCache::add_map_entry(std::uint32_t idx, IoPlan* plan) {
  const CacheSets::CacheSlot& s = sets_.slot(idx);
  MetadataEntry e;
  e.daz_idx = idx;
  e.lba_raid = s.lba;
  e.state = s.state;
  if (s.state == PageState::kOld) {
    KDD_CHECK(s.dez_idx != CacheSets::kStaged);  // persisted only after commit
    e.dez_idx = s.dez_idx;
    e.dez_off = s.dez_off;
    e.dez_len = s.dez_len;
  }
  log_.add_entry(e, plan);
}

void KddCache::on_evict_slot(std::uint32_t idx) {
  MetadataEntry e;
  e.daz_idx = idx;
  e.lba_raid = kInvalidLba;
  e.state = PageState::kFree;
  log_.add_entry(e, nullptr);
}

// ---------------------------------------------------------------------------
// Delta plumbing
// ---------------------------------------------------------------------------

KddCache::DeltaInfo KddCache::compute_delta(std::uint32_t daz_idx,
                                            std::span<const std::uint8_t> data,
                                            IoPlan* plan) {
  const obs::SpanScope span(obs::Stage::kDeltaEncode);
  DeltaInfo info;
  if (ssd_.real()) {
    ScratchPage old_version;  // arena scratch: no allocation once warm
    if (ssd_.read_data(daz_idx, *old_version, plan) != IoStatus::kOk) {
      info.ok = false;  // DAZ base unreadable: no delta can be formed
      return info;
    }
    make_delta_into(*old_version, data, info.blob);
    info.packed = static_cast<std::uint32_t>(info.blob.packed_size());
  } else {
    ssd_.read_data(daz_idx, {}, plan);  // the prototype reads the old version
    const double ratio = sampler_.sample(rng_);
    const auto payload = static_cast<std::uint32_t>(
        std::max(1.0, std::round(ratio * static_cast<double>(kPageSize))));
    info.packed = payload + static_cast<std::uint32_t>(Delta::kHeaderSize);
  }
  return info;
}

bool KddCache::load_delta(const CacheSets::CacheSlot& slot, Delta& out, IoPlan* plan) {
  KDD_CHECK(slot.state == PageState::kOld);
  if (slot.dez_idx == CacheSets::kStaged) {
    const StagedDelta* staged = nvram_->staging.find(slot.lba);
    if (staged == nullptr) return false;
    out = staged->blob;
    return true;
  }
  ScratchPage dez_page;
  if (ssd_.read_data(slot.dez_idx, *dez_page, plan) != IoStatus::kOk) return false;
  Delta d;
  if (!unpack_delta(*dez_page, slot.dez_off, d)) return false;
  if (d.packed_size() != slot.dez_len) return false;
  out = std::move(d);
  return true;
}

void KddCache::charge_delta_read(const CacheSets::CacheSlot& slot, IoPlan* plan) {
  if (slot.dez_idx != CacheSets::kStaged) ssd_.read_data(slot.dez_idx, {}, plan);
}

void KddCache::stage_delta(Lba lba, std::uint32_t daz_idx, DeltaInfo info,
                           IoPlan* plan) {
  KDD_CHECK(info.packed <= kPageSize);
  nvram_->staging.erase(lba);
  if (!nvram_->staging.fits(info.packed)) commit_staging(plan);
  StagedDelta d;
  d.lba = lba;
  d.daz_idx = daz_idx;
  d.packed_size = info.packed;
  d.blob = std::move(info.blob);
  nvram_->staging.put(std::move(d));
  sets_.slot(daz_idx).dez_idx = CacheSets::kStaged;
  sets_.slot(daz_idx).dez_off = 0;
  sets_.slot(daz_idx).dez_len = static_cast<std::uint16_t>(info.packed);
}

IoStatus KddCache::write_dez_run(std::uint32_t dest,
                                 std::span<const StagedDelta> run, IoPlan* plan) {
  KDD_CHECK(!run.empty());
  // Page image. Zeroed so the gaps between packed deltas never leak stale
  // scratch bytes to media; arena-backed so committing is allocation-free
  // once warm.
  ScratchPage content_sp(ScratchPage::kZeroed);
  Page& content = *content_sp;
  std::size_t off = 0;
  for (const StagedDelta& item : run) {
    if (ssd_.real()) {
      const std::size_t written = pack_delta(item.blob, content, off);
      KDD_CHECK(written == item.packed_size);
    }
    off += item.packed_size;
  }
  KDD_CHECK(off <= kPageSize);
  // Write the DEZ page *before* persisting any mapping to it: a torn or
  // failed commit must never leave metadata pointing at garbage deltas.
  const IoStatus wst =
      ssd_.write_data(dest, SsdWriteKind::kDeltaCommit,
                      ssd_.real() ? std::span<const std::uint8_t>(content)
                                  : std::span<const std::uint8_t>{},
                      plan);
  if (wst != IoStatus::kOk) return wst;
  dez_space_.open_page(dest);
  for (const StagedDelta& item : run) {
    const std::uint32_t at = dez_space_.append(dest, item.packed_size);
    CacheSets::CacheSlot& daz = sets_.slot(item.daz_idx);
    KDD_CHECK(daz.state == PageState::kOld && daz.lba == item.lba);
    daz.dez_idx = dest;
    daz.dez_off = static_cast<std::uint16_t>(at);
    daz.dez_len = static_cast<std::uint16_t>(item.packed_size);
    add_map_entry(item.daz_idx, plan);
  }
  sets_.set_state(dest, PageState::kDelta);
  sets_.slot(dest).valid_count = static_cast<std::uint16_t>(run.size());
  ++dez_pages_;
  return IoStatus::kOk;
}

void KddCache::commit_staging(IoPlan* plan) {
  std::vector<StagedDelta> all = nvram_->staging.take_all();
  if (all.empty()) return;
  const obs::SpanScope span(obs::Stage::kDezCommit);

  const auto fold_run = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      DeltaInfo info;
      info.packed = all[i].packed_size;
      info.blob = std::move(all[i].blob);
      resolve_and_drop(all[i].daz_idx, &info, plan);
    }
  };

  // First-fit packing into fresh DEZ pages, preserving FIFO order.
  std::size_t pos = 0;
  while (pos < all.size()) {
    std::size_t end = pos;
    std::size_t bytes = 0;
    while (end < all.size() && bytes + all[end].packed_size <= kPageSize) {
      bytes += all[end].packed_size;
      ++end;
    }
    KDD_CHECK(end > pos);
    const std::uint32_t dez = alloc_dez_slot(plan);
    if (dez == CacheSets::kNone) {
      // Emergency: no DEZ page obtainable — fold the remaining deltas into
      // parity synchronously and drop their pages.
      fold_run(pos, all.size());
      return;
    }
    const auto run = std::span<const StagedDelta>(all).subspan(pos, end - pos);
    if (write_dez_run(dez, run, plan) != IoStatus::kOk) {
      // DEZ page unwritable (media error / power loss): fold this batch's
      // deltas into parity synchronously instead of mapping a bad page.
      note_media_fallback("dez page unwritable at commit");
      ssd_.trim_data(dez);
      fold_run(pos, end);
    }
    pos = end;
  }
  refresh_dez_gauges();
}

// ---------------------------------------------------------------------------
// Adaptive DAZ/DEZ boundary
// ---------------------------------------------------------------------------

void KddCache::note_compressibility(double packed_ratio) {
  const double w = kCompressibilityEwma;
  comp_ewma_ = (1.0 - w) * comp_ewma_ + w * std::min(1.0, packed_ratio);
}

void KddCache::note_boundary_miss(Lba lba) {
  if (!boundary_ghost_) return;
  ++boundary_epoch_misses_;
  if (boundary_ghost_->touch_and_check(lba)) ++boundary_epoch_ghost_hits_;
}

std::uint64_t KddCache::boundary_target_pages() const {
  // Compressibility steers the share of cache pages the delta zone may hold:
  // highly compressible deltas (EWMA near 0.2 of a page) earn up to 30% of
  // the cache, incompressible ones (EWMA at 0.75+) shrink the zone to 4% —
  // a DEZ full of near-page-size deltas is strictly worse than DAZ residency.
  const double t = std::clamp((0.75 - comp_ewma_) / (0.75 - 0.20), 0.0, 1.0);
  double frac = 0.04 + t * (0.30 - 0.04);
  // Ghost-LRU marginal utility: when over half of this epoch's misses would
  // have hit with a slightly larger DAZ, trade delta capacity for residency.
  if (boundary_epoch_misses_ >= 16 &&
      boundary_epoch_ghost_hits_ * 2 > boundary_epoch_misses_) {
    frac *= 0.75;
  }
  const auto target =
      static_cast<std::uint64_t>(frac * static_cast<double>(sets_.pages()));
  return std::max<std::uint64_t>(1, target);
}

void KddCache::update_boundary() {
  if (!config_.adaptive_boundary) return;
  if (op_counter_ - last_boundary_op_ < config_.boundary_epoch_ops) return;
  last_boundary_op_ = op_counter_;
  const std::uint64_t target = boundary_target_pages();
  // Dead band + bounded step + two-epoch confirmation: the EWMA ripple from
  // alternating compressibility lands the target just outside the dead band
  // on *alternating* sides, so requiring the same out-of-band direction in two
  // consecutive epochs kills the flip-flop without delaying a genuine phase
  // shift by more than one epoch (tests/test_elastic.cpp pins this down).
  const std::uint64_t dead_band = std::max<std::uint64_t>(1, sets_.pages() / 64);
  const std::uint64_t step = std::max<std::uint64_t>(1, sets_.pages() / 32);
  const std::uint64_t cur = dez_limit_pages_;
  std::int8_t dir = 0;
  if (target > cur && target - cur > dead_band) {
    dir = 1;
  } else if (cur > target && cur - target > dead_band) {
    dir = -1;
  }
  std::uint64_t next = cur;
  if (dir != 0 && dir == boundary_pending_dir_) {
    next = dir > 0 ? std::min(cur + step, target)
                   : (cur > step ? std::max(cur - step, target) : target);
  }
  boundary_pending_dir_ = dir;
  if (next != cur) {
    dez_limit_pages_ = next;
    ++boundary_moves_;
    kdd_metrics().boundary_moves.inc();
  }
  boundary_epoch_misses_ = 0;
  boundary_epoch_ghost_hits_ = 0;
  refresh_dez_gauges();
}

std::uint32_t KddCache::delta_admit_limit() const {
  // A saturated delta zone stops admitting marginal (barely-compressible)
  // deltas: they would evict twice their value in DAZ pages. They go
  // write-through instead, exactly like incompressible ones.
  if (config_.adaptive_boundary && dez_limit_pages_ > 0 &&
      dez_pages_ >= dez_limit_pages_) {
    return static_cast<std::uint32_t>(kPageSize / 2);
  }
  return static_cast<std::uint32_t>(kPageSize);
}

std::uint64_t KddCache::elastic_spare_pages() const {
  if (!config_.adaptive_boundary || dez_limit_pages_ == 0) return 0;
  return dez_pages_ < dez_limit_pages_ ? dez_limit_pages_ - dez_pages_ : 0;
}

std::uint64_t KddCache::effective_clean_high_pages() const {
  const auto high = static_cast<std::uint64_t>(
      config_.clean_high_watermark * static_cast<double>(sets_.pages()));
  const std::uint64_t spare = elastic_spare_pages();
  if (spare == 0 || sets_.pages() == 0) return high;
  // Degraded/rebuilding arrays get the whole spare — deferring parity work
  // off the critical path is exactly what the reclaimed capacity is for.
  // Healthy arrays keep most of it as destage-burst headroom.
  const bool stressed = rebuild_ && rebuild_->health() != ArrayHealth::kHealthy;
  const std::uint64_t boost = stressed ? spare : spare / 4;
  return std::min(high + boost, static_cast<std::uint64_t>(sets_.pages()) - 1);
}

void KddCache::refresh_dez_gauges() {
  KddMetrics& m = kdd_metrics();
  m.dez_live_bytes.set(static_cast<std::int64_t>(dez_space_.live_bytes()));
  m.dez_dead_bytes.set(static_cast<std::int64_t>(dez_space_.dead_bytes()));
  m.dez_boundary_pages.set(static_cast<std::int64_t>(dez_limit_pages_));
  m.dez_spare_pages.set(static_cast<std::int64_t>(elastic_spare_pages()));
}

// ---------------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------------

std::uint32_t KddCache::alloc_daz_slot(std::uint32_t set, IoPlan* plan) {
  (void)plan;
  std::uint32_t idx = sets_.find_free(set);
  if (idx == CacheSets::kNone) idx = evict_lru_clean(set);
  return idx;
}

std::uint32_t KddCache::alloc_dez_slot(IoPlan* plan) {
  // Power-of-k-choices approximation of "the set with the least DEZ pages"
  // (Section III-B): sample k sets, prefer a free page in the least-DEZ one.
  constexpr int kProbes = 8;
  std::uint32_t best_free = CacheSets::kNone;
  std::uint32_t best_free_dez = 0xffffffffu;
  std::uint32_t best_evict = CacheSets::kNone;
  std::uint32_t best_evict_dez = 0xffffffffu;
  for (int p = 0; p < kProbes; ++p) {
    const auto s = static_cast<std::uint32_t>(rng_.next_below(sets_.num_sets()));
    if (sets_.free_count(s) > 0 && sets_.dez_count(s) < best_free_dez) {
      best_free = s;
      best_free_dez = sets_.dez_count(s);
    }
    if (sets_.lru_tail(s) != CacheSets::kNone && sets_.dez_count(s) < best_evict_dez) {
      best_evict = s;
      best_evict_dez = sets_.dez_count(s);
    }
  }
  if (best_free != CacheSets::kNone) return sets_.find_free(best_free);
  if (best_evict != CacheSets::kNone) return evict_lru_clean(best_evict);
  // Fall back to a linear scan before giving up entirely.
  for (std::uint32_t s = 0; s < sets_.num_sets(); ++s) {
    if (sets_.free_count(s) > 0) return sets_.find_free(s);
    if (sets_.lru_tail(s) != CacheSets::kNone) return evict_lru_clean(s);
  }
  (void)plan;
  return CacheSets::kNone;
}

// ---------------------------------------------------------------------------
// Delta invalidation / reclamation
// ---------------------------------------------------------------------------

void KddCache::invalidate_delta(std::uint32_t daz_idx, IoPlan* plan) {
  (void)plan;
  CacheSets::CacheSlot& slot = sets_.slot(daz_idx);
  if (slot.dez_idx == CacheSets::kStaged) {
    nvram_->staging.erase(slot.lba);
  } else if (slot.dez_idx != CacheSets::kNone) {
    CacheSets::CacheSlot& dez = sets_.slot(slot.dez_idx);
    KDD_CHECK(dez.state == PageState::kDelta);
    KDD_CHECK(dez.valid_count > 0);
    dez_space_.on_dead(slot.dez_idx, slot.dez_len);
    if (--dez.valid_count == 0) {
      ssd_.trim_data(slot.dez_idx);
      sets_.reset_slot(slot.dez_idx);
      dez_space_.on_free(slot.dez_idx);
      KDD_CHECK(dez_pages_ > 0);
      --dez_pages_;
    }
  }
  slot.dez_idx = CacheSets::kNone;
  slot.dez_off = slot.dez_len = 0;
}

void KddCache::drop_old_page(std::uint32_t daz_idx, IoPlan* plan) {
  CacheSets::CacheSlot& slot = sets_.slot(daz_idx);
  KDD_CHECK(slot.state == PageState::kOld);
  note_group_repair(raid_.layout().group_of(slot.lba));
  KDD_CHECK(old_pages_ > 0);
  --old_pages_;
  ssd_.trim_data(daz_idx);
  sets_.reset_slot(daz_idx);
  on_evict_slot(daz_idx);
  (void)plan;
}

void KddCache::resolve_and_drop(std::uint32_t daz_idx, const DeltaInfo* override_delta,
                                IoPlan* plan) {
  CacheSets::CacheSlot& slot = sets_.slot(daz_idx);
  // A heal_group triggered by an earlier page of the same batch may already
  // have dropped this page — nothing left to resolve.
  if (slot.state != PageState::kOld) return;
  const GroupId g = raid_.layout().group_of(slot.lba);
  const std::uint32_t index = raid_.layout().index_in_group(slot.lba);

  // delta_xor_view aliases a raw payload directly (zero-copy) and only
  // decompresses into the arena scratch for LZ-compressed deltas.
  Page placeholder;  // prototype mode: the RMW never dereferences the diff
  ScratchPage scratch_sp;
  Delta d;
  const Page* xor_diff = &placeholder;
  if (ssd_.real()) {
    if (override_delta) {
      xor_diff = &delta_xor_view(override_delta->blob, *scratch_sp);
    } else {
      if (!load_delta(slot, d, plan)) {
        // Delta lost to a cache-media fault: RMW would fold garbage into
        // parity. Discard the group's deltas and reconstruct parity instead.
        note_media_fallback("delta unreadable at resolve");
        heal_group(g, plan);
        return;
      }
      xor_diff = &delta_xor_view(d, *scratch_sp);
    }
  } else if (!override_delta) {
    charge_delta_read(slot, plan);
  }
  const GroupDelta gd{index, xor_diff};
  const bool last_in_group =
      dirty_groups_.count(g) != 0 && dirty_groups_.at(g) == 1;
  const IoStatus st =
      raid_.update_parity_rmw(g, std::span<const GroupDelta>(&gd, 1), plan,
                              /*finalize=*/last_in_group);
  if (st != IoStatus::kOk) {
    note_media_fallback("parity rmw failed at resolve");
    heal_group(g, plan);
    return;
  }
  // Always discard the superseded delta: for a staged one this erases it from
  // the NVRAM buffer (a no-op if the caller already drained staging), for a
  // DEZ-resident one it decrements the page's valid count.
  invalidate_delta(daz_idx, plan);
  drop_old_page(daz_idx, plan);
}

void KddCache::note_old_transition(std::uint32_t daz_idx) {
  const CacheSets::CacheSlot& slot = sets_.slot(daz_idx);
  const GroupId g = raid_.layout().group_of(slot.lba);
  if (++dirty_groups_[g] == 1) stale_since_[g] = op_counter_;
  ++old_pages_;
}

void KddCache::note_group_repair(GroupId g) {
  const auto it = dirty_groups_.find(g);
  KDD_CHECK(it != dirty_groups_.end() && it->second > 0);
  if (--it->second > 0) return;
  dirty_groups_.erase(it);
  const auto since = stale_since_.find(g);
  if (since != stale_since_.end()) {
    staleness_ages_.record(op_counter_ - since->second);
    stale_since_.erase(since);
  }
}

void KddCache::heal_group(GroupId g, IoPlan* plan) {
  const obs::SpanScope span(obs::Stage::kHeal);
  KDD_LOG(Warn, "heal_group g=%llu: discarding pending deltas, "
          "reconstructing parity from data members",
          static_cast<unsigned long long>(g));
  // Every pending delta of `g` is discarded: the RAID copy of each data
  // member is always current (writes reach the array via write_page_nopar
  // *before* their delta is staged), so parity can be regenerated from the
  // data members alone — no cache state is needed.
  const RaidLayout& layout = raid_.layout();
  const std::uint32_t set = set_for(layout.group_member(g, 0));
  const std::uint32_t base = set * sets_.ways();
  for (std::uint32_t w = 0; w < sets_.ways(); ++w) {
    const std::uint32_t idx = base + w;
    const CacheSets::CacheSlot& s = sets_.slot(idx);
    if (s.state == PageState::kOld && layout.group_of(s.lba) == g) {
      invalidate_delta(idx, plan);
      drop_old_page(idx, plan);
    }
  }
  ++groups_healed_;
  kdd_metrics().groups_healed.inc();
  if (raid_.group_stale(g)) {
    // Best effort: if the reconstruct itself fails (e.g. power loss mid
    // request) the group simply stays stale for recovery to resync.
    std::vector<const Page*> none(layout.geometry().data_disks(), nullptr);
    (void)raid_.update_parity_reconstruct_cached(g, none, plan);
  }
}

// ---------------------------------------------------------------------------
// Request paths
// ---------------------------------------------------------------------------

IoStatus KddCache::read(Lba lba, std::span<std::uint8_t> out, IoPlan* plan) {
  const obs::TraceContextScope trace;  // request root span + ambient context
  ++op_counter_;
  if (rebuild_) {
    rebuild_->note_foreground();
    if (rebuild_->health() != ArrayHealth::kHealthy) rebuild_->pump(plan);
  }
  const std::uint32_t set = set_for(lba);
  std::uint32_t idx;
  {
    const obs::SpanScope lookup(obs::Stage::kCacheLookup);
    idx = sets_.find_data(set, lba);
  }
  if (idx != CacheSets::kNone) {
    ++stats_.read_hits;
    obs::health_cache_hit();
    if (page_down(lba)) {
      // The page's member is failed or not yet past the rebuild cursor, but
      // its newest version is cache-resident (data, or DAZ base + delta):
      // the degraded read never touches the array.
      ++degraded_cache_hits_;
      kdd_metrics().degraded_cache_hits.inc();
    }
    CacheSets::CacheSlot& slot = sets_.slot(idx);
    if (slot.state == PageState::kClean) {
      sets_.lru_touch(idx);
      const IoStatus st = ssd_.read_data(idx, out, plan);
      if (st == IoStatus::kOk) return IoStatus::kOk;
      // Cache copy unreadable — a clean page is by definition a copy of the
      // RAID contents, so serve from the array and retire the bad slot.
      note_media_fallback("clean daz page unreadable on read hit");
      ssd_.trim_data(idx);
      sets_.reset_slot(idx);
      on_evict_slot(idx);
      return raid_.read_page(lba, out, plan);
    }
    // Old page: combine the DAZ copy with its latest delta (Section III-A).
    // Neither read needs the other's result, so they overlap.
    KDD_DCHECK(slot.state == PageState::kOld);
    PlanFork<2> fork(plan);
    if (ssd_.real()) {
      ScratchPage daz;
      Delta d;
      if (ssd_.read_data(idx, *daz, fork.lane(0)) != IoStatus::kOk ||
          !load_delta(slot, d, fork.lane(1))) {
        // DAZ base or delta unreadable. The array already holds the newest
        // contents (write hits go to RAID before delta staging), so heal the
        // group and serve from the array.
        fork.join();
        note_media_fallback("old page/delta unreadable on read hit");
        heal_group(raid_.layout().group_of(lba), plan);
        return raid_.read_page(lba, out, plan);
      }
      // Combine straight into the caller's buffer: no staging copy.
      apply_delta_into(*daz, d, out);
    } else {
      ssd_.read_data(idx, {}, fork.lane(0));
      charge_delta_read(slot, fork.lane(1));
    }
    return IoStatus::kOk;
  }
  ++stats_.read_misses;
  obs::health_cache_miss();
  note_boundary_miss(lba);
  IoStatus st = raid_.read_page(lba, out, plan);
  if (st != IoStatus::kOk && page_down(lba)) {
    // Degraded miss in a stale group: the array refuses to reconstruct a
    // lost member from stale parity (it would fabricate old data). Fold the
    // group's pending deltas — parity becomes current — and retry the
    // reconstructing read.
    const GroupId g = raid_.layout().group_of(lba);
    if (dirty_groups_.contains(g) && !claimed_groups_.contains(g)) {
      clean_group(g, plan);
      st = raid_.read_page(lba, out, plan);
      if (st == IoStatus::kOk) {
        ++degraded_delta_folds_;
        kdd_metrics().degraded_delta_folds.inc();
      }
    }
  }
  if (st != IoStatus::kOk) return st;
  if (!admit(lba)) return IoStatus::kOk;  // LARC: first touch stays ghost-only
  const std::uint32_t slot = alloc_daz_slot(set, plan);
  if (slot == CacheSets::kNone) return IoStatus::kOk;  // set pinned solid
  if (ssd_.write_data(slot, SsdWriteKind::kReadFill, out, plan) != IoStatus::kOk) {
    // Admission failed (torn / failed cache write): never map a bad page.
    note_media_fallback("read-fill admission write failed");
    ssd_.trim_data(slot);
    sets_.reset_slot(slot);
    return IoStatus::kOk;
  }
  sets_.slot(slot).lba = lba;
  sets_.set_state(slot, PageState::kClean);
  add_map_entry(slot, plan);
  return IoStatus::kOk;
}

IoStatus KddCache::degraded_write_page(Lba lba, std::span<const std::uint8_t> data,
                                       IoPlan* plan) {
  IoStatus st = raid_.write_page(lba, data, plan);
  if (st != IoStatus::kOk) {
    // The array refuses to launder a lost member of a stale group through
    // reconstruction. Fold the group's pending deltas — parity becomes
    // current, reconstruction becomes safe — and retry.
    const GroupId g = raid_.layout().group_of(lba);
    if (dirty_groups_.contains(g) && !claimed_groups_.contains(g)) {
      clean_group(g, plan);
      st = raid_.write_page(lba, data, plan);
      if (st == IoStatus::kOk) {
        ++degraded_delta_folds_;
        kdd_metrics().degraded_delta_folds.inc();
      }
    }
  }
  return st;
}

void KddCache::write_preamble(IoPlan* plan) {
  ++op_counter_;
  if (rebuild_) {
    rebuild_->note_foreground();
    if (rebuild_->health() != ArrayHealth::kHealthy) rebuild_->pump(plan);
  }
  update_boundary();
}

IoStatus KddCache::write(Lba lba, std::span<const std::uint8_t> data, IoPlan* plan) {
  const obs::TraceContextScope trace;  // request root span + ambient context
  write_preamble(plan);
  return write_inner(lba, data, plan);
}

IoStatus KddCache::write_inner(Lba lba, std::span<const std::uint8_t> data,
                               IoPlan* plan) {
  const std::uint32_t set = set_for(lba);
  std::uint32_t idx;
  {
    const obs::SpanScope lookup(obs::Stage::kCacheLookup);
    idx = sets_.find_data(set, lba);
  }

  if (idx == CacheSets::kNone) {
    // Write miss: conventional parity update (degraded-capable: folds the
    // group's deltas and retries when the array refuses), then admit. The
    // RMW and the write-alloc fill overlap; the mapping entry that claims
    // the array write as clean waits for both.
    ++stats_.write_misses;
    obs::health_cache_miss();
    note_boundary_miss(lba);
    PlanFork<2> fork(plan);
    const std::uint64_t folds = degraded_delta_folds_;
    const IoStatus st = degraded_write_page(lba, data, fork.lane(0));
    if (st != IoStatus::kOk) return st;
    if (degraded_delta_folds_ != folds) fork.join();  // fill waits for the fold
    if (!admit(lba)) return IoStatus::kOk;
    const std::uint32_t slot = alloc_daz_slot(set, plan);
    if (slot == CacheSets::kNone) return IoStatus::kOk;
    if (ssd_.write_data(slot, SsdWriteKind::kWriteAlloc, data, fork.lane(1)) !=
        IoStatus::kOk) {
      note_media_fallback("write-alloc admission write failed");
      ssd_.trim_data(slot);
      sets_.reset_slot(slot);
      return IoStatus::kOk;  // the array already has the data
    }
    sets_.slot(slot).lba = lba;
    sets_.set_state(slot, PageState::kClean);
    fork.join();
    add_map_entry(slot, plan);
    return IoStatus::kOk;
  }

  ++stats_.write_hits;
  obs::health_cache_hit();
  WriteHitFork fork(plan);
  DeltaInfo info = compute_delta(idx, data, fork.lane(kBaseLane));
  return write_hit_locked(lba, data, set, idx, std::move(info), fork);
}

IoStatus KddCache::write_hit_locked(Lba lba, std::span<const std::uint8_t> data,
                                    std::uint32_t set, std::uint32_t idx,
                                    DeltaInfo info, WriteHitFork& fork) {
  IoPlan* const plan = fork.parent();
  CacheSets::CacheSlot& slot = sets_.slot(idx);
  if (info.ok) {
    note_compressibility(static_cast<double>(info.packed) /
                         static_cast<double>(kPageSize));
  }

  if (slot.state == PageState::kClean) {
    if (!info.ok) {
      // DAZ copy unreadable: write through first, then rewrite the cache
      // copy with the new contents (which also heals a latent sector error).
      // Array-before-cache order matters: a degraded write may fold this
      // group's deltas, and the fold must not see a cache copy that is ahead
      // of the member's disk contents (it would bake the unwritten update
      // into parity, which the array write would then re-apply).
      fork.join();
      note_media_fallback("daz base unreadable on clean write hit");
      const IoStatus st = degraded_write_page(lba, data, plan);
      if (st != IoStatus::kOk) {
        // Unreadable copy, array rejected the write: retire the slot.
        ssd_.trim_data(idx);
        sets_.reset_slot(idx);
        on_evict_slot(idx);
        return st;
      }
      if (ssd_.write_data(idx, SsdWriteKind::kWriteUpdate, data, plan) ==
          IoStatus::kOk) {
        sets_.lru_touch(idx);
      } else {
        ssd_.trim_data(idx);
        sets_.reset_slot(idx);
        on_evict_slot(idx);
      }
      return IoStatus::kOk;
    }
    if (info.packed > delta_admit_limit()) {
      // Incompressible delta: no benefit in deferring — stay write-through
      // (degraded-capable: folds the group and retries when the array
      // refuses). Array first, cache refresh second — see above.
      fork.join();
      ++delta_fallbacks_;
      kdd_metrics().delta_fallbacks.inc();
      const IoStatus st = degraded_write_page(lba, data, plan);
      if (st != IoStatus::kOk) return st;  // cache still matches the disk
      if (ssd_.write_data(idx, SsdWriteKind::kWriteUpdate, data, plan) ==
          IoStatus::kOk) {
        sets_.lru_touch(idx);
      } else {
        note_media_fallback("write-update rewrite failed");
        ssd_.trim_data(idx);
        sets_.reset_slot(idx);
        on_evict_slot(idx);
      }
      return IoStatus::kOk;
    }
    const IoStatus st = raid_.write_page_nopar(lba, data, fork.lane(kArrayLane));
    if (st != IoStatus::kOk) {
      fork.join();
      if (!page_down(lba)) return st;
      // The page's member is down (failed disk / ahead of the rebuild
      // cursor): the nopar fast path would strand the new data on a lost
      // disk. Write through conventionally — the array reconstructs around
      // the lost member — and refresh the clean DAZ copy so degraded reads
      // keep hitting the cache.
      const IoStatus wst = degraded_write_page(lba, data, plan);
      if (wst != IoStatus::kOk) return wst;
      if (ssd_.write_data(idx, SsdWriteKind::kWriteUpdate, data, plan) ==
          IoStatus::kOk) {
        sets_.lru_touch(idx);
      } else {
        note_media_fallback("degraded write-through rewrite failed");
        ssd_.trim_data(idx);
        sets_.reset_slot(idx);
        on_evict_slot(idx);
      }
      return IoStatus::kOk;
    }
    sets_.set_state(idx, PageState::kOld);
    note_old_transition(idx);
    stage_delta(lba, idx, std::move(info), fork.lane(kCommitLane));
    fork.join();
    maybe_clean(plan);
    return IoStatus::kOk;
  }

  KDD_DCHECK(slot.state == PageState::kOld);
  if (!info.ok) {
    // The old page's DAZ base is gone, so neither the previous delta chain
    // nor a new delta can be trusted. Heal the whole group (the array holds
    // the newest data), then write conventionally and re-admit clean.
    fork.join();
    note_media_fallback("daz base unreadable on old write hit");
    heal_group(raid_.layout().group_of(lba), plan);
    const IoStatus st = degraded_write_page(lba, data, plan);
    if (st != IoStatus::kOk) return st;
    const std::uint32_t ns = alloc_daz_slot(set, plan);
    if (ns == CacheSets::kNone) return IoStatus::kOk;
    if (ssd_.write_data(ns, SsdWriteKind::kWriteAlloc, data, plan) !=
        IoStatus::kOk) {
      ssd_.trim_data(ns);
      sets_.reset_slot(ns);
      return IoStatus::kOk;
    }
    sets_.slot(ns).lba = lba;
    sets_.set_state(ns, PageState::kClean);
    add_map_entry(ns, plan);
    return IoStatus::kOk;
  }
  // compute_delta() diffs against the DAZ copy, so `info` is exactly the
  // delta the stale parity needs — the previous delta is superseded.
  const IoStatus st = raid_.write_page_nopar(lba, data, fork.lane(kArrayLane));
  if (st != IoStatus::kOk) {
    fork.join();
    if (!page_down(lba)) return st;
    // Old page on a down member. Fold the group's deltas first (the old
    // page's previous version is still encoded in the stale parity), then
    // write through conventionally and re-admit the newest version.
    const GroupId g = raid_.layout().group_of(lba);
    if (dirty_groups_.contains(g) && !claimed_groups_.contains(g)) {
      clean_group(g, plan);
      ++degraded_delta_folds_;
      kdd_metrics().degraded_delta_folds.inc();
    }
    const IoStatus wst = degraded_write_page(lba, data, plan);
    if (wst != IoStatus::kOk) return wst;
    // clean_group either reclaimed the slot as clean (scheme 1) or dropped
    // it (scheme 2); refresh what survives, else admit fresh.
    const std::uint32_t cur = sets_.find_data(set, lba);
    if (cur != CacheSets::kNone) {
      if (ssd_.write_data(cur, SsdWriteKind::kWriteUpdate, data, plan) ==
          IoStatus::kOk) {
        sets_.lru_touch(cur);
      } else {
        note_media_fallback("degraded write-through rewrite failed");
        ssd_.trim_data(cur);
        sets_.reset_slot(cur);
        on_evict_slot(cur);
      }
      return IoStatus::kOk;
    }
    const std::uint32_t ns = alloc_daz_slot(set, plan);
    if (ns == CacheSets::kNone) return IoStatus::kOk;
    if (ssd_.write_data(ns, SsdWriteKind::kWriteAlloc, data, plan) !=
        IoStatus::kOk) {
      ssd_.trim_data(ns);
      sets_.reset_slot(ns);
      return IoStatus::kOk;
    }
    sets_.slot(ns).lba = lba;
    sets_.set_state(ns, PageState::kClean);
    add_map_entry(ns, plan);
    return IoStatus::kOk;
  }
  if (info.packed > delta_admit_limit()) {
    fork.join();
    ++delta_fallbacks_;
    kdd_metrics().delta_fallbacks.inc();
    resolve_and_drop(idx, &info, plan);
    return IoStatus::kOk;
  }
  invalidate_delta(idx, plan);
  stage_delta(lba, idx, std::move(info), fork.lane(kCommitLane));
  fork.join();
  maybe_clean(plan);
  return IoStatus::kOk;
}

// ---------------------------------------------------------------------------
// Speculative write split (SpeculativeWriteSource)
// ---------------------------------------------------------------------------

SpeculativeWriteSource::Snapshot KddCache::write_snapshot(
    Lba lba, std::span<std::uint8_t> base) {
  Snapshot snap;
  // Counter mode samples delta sizes from rng_ in request order, so a
  // speculated request would perturb every later draw: never speculate.
  if (!ssd_.real()) return snap;
  const std::uint32_t set = set_for(lba);
  const std::uint32_t idx = sets_.find_data(set, lba);
  if (idx == CacheSets::kNone) return snap;
  const CacheSets::CacheSlot& slot = sets_.slot(idx);
  if (slot.state != PageState::kClean && slot.state != PageState::kOld) {
    return snap;
  }
  // This read replaces the one compute_delta would have issued, so the SSD
  // accounting of a successfully-speculated hit matches the inline path
  // exactly. An unreadable base is not a reason to fail here — returning an
  // invalid snapshot routes the request through write_inner(), which
  // re-reads and takes the media-fallback path.
  if (ssd_.read_data(idx, base, nullptr) != IoStatus::kOk) return snap;
  snap.idx = idx;
  snap.state = static_cast<std::uint8_t>(slot.state);
  snap.valid = true;
  return snap;
}

IoStatus KddCache::write_prepared(Lba lba, std::span<const std::uint8_t> data,
                                  const Snapshot& snap, PreparedDelta&& delta,
                                  IoPlan* plan) {
  const obs::TraceContextScope trace;
  write_preamble(plan);
  if (!snap.valid) return write_inner(lba, data, plan);
  const std::uint32_t set = set_for(lba);
  const std::uint32_t idx = sets_.find_data(set, lba);
  // Revalidate after the preamble: a rebuild pump (like any activity on other
  // parity groups between snapshot and now — eviction, cleaning, healing) may
  // have moved or retired the slot. The caller's stripe lock guarantees no
  // same-group request intervened, so idx + state matching means the DAZ base
  // the delta was diffed against is still the slot's exact contents.
  if (idx != snap.idx ||
      static_cast<std::uint8_t>(sets_.slot(idx).state) != snap.state) {
    return write_inner(lba, data, plan);  // recompute the delta inline
  }
  ++stats_.write_hits;
  obs::health_cache_hit();
  DeltaInfo info;
  info.blob = std::move(delta.blob);
  info.packed = delta.packed;
  // write_snapshot read the base with no plan, so the base lane stays empty.
  WriteHitFork fork(plan);
  return write_hit_locked(lba, data, set, idx, std::move(info), fork);
}

// ---------------------------------------------------------------------------
// Cleaning (Section III-D)
// ---------------------------------------------------------------------------

void KddCache::maybe_clean(IoPlan* plan) {
  if (cleaning_ || external_cleaner_) return;
  const std::uint64_t high = effective_clean_high_pages();
  if (old_pages_ + dez_pages_ <= high) return;
  cleaning_ = true;
  const obs::SpanScope span(obs::Stage::kClean);
  IoPlan* clean_plan = bg_or(plan);  // cleaning runs in the background thread
  const auto low = static_cast<std::uint64_t>(
      config_.clean_low_watermark * static_cast<double>(sets_.pages()));
  while (old_pages_ + dez_pages_ > low && !dirty_groups_.empty()) {
    if (!destage_batch_once(clean_plan)) break;
  }
  ++stats_.cleanings;
  cleaning_ = false;
}

void KddCache::clean_all(IoPlan* plan) {
  if (cleaning_) return;
  cleaning_ = true;
  // No kClean span here: the callers (on_idle, flush, failure handling)
  // install the root that attributes this pass.
  while (!dirty_groups_.empty() &&
         claimed_groups_.size() < dirty_groups_.size()) {
    if (!destage_batch_once(plan)) break;
  }
  cleaning_ = false;
}

bool KddCache::destage_batch_once(IoPlan* plan) {
  const std::vector<GroupId> groups = destage_claim(destage_batch_size());
  if (groups.empty()) return false;
  std::unique_ptr<DestageUnit> unit = destage_prepare(groups, plan);
  if (!unit) return false;
  unit->fold();
  destage_commit(*unit, plan);
  return true;
}

bool KddCache::clean_group(GroupId g, IoPlan* plan) {
  const RaidLayout& layout = raid_.layout();
  const std::uint32_t dd = layout.geometry().data_disks();
  const std::uint32_t set = set_for(layout.group_member(g, 0));
  const std::uint32_t base = set * sets_.ways();

  std::vector<std::uint32_t> old_slots;
  for (std::uint32_t w = 0; w < sets_.ways(); ++w) {
    const CacheSets::CacheSlot& s = sets_.slot(base + w);
    if (s.state == PageState::kOld && layout.group_of(s.lba) == g) {
      old_slots.push_back(base + w);
    }
  }
  KDD_CHECK(!old_slots.empty());

  // Reconstruct-write only if every data member of the stripe is resident
  // (Section III-D); otherwise RMW folds the deltas into the stale parity.
  bool all_cached = true;
  std::vector<std::uint32_t> member_slots(dd, CacheSets::kNone);
  for (std::uint32_t k = 0; k < dd; ++k) {
    member_slots[k] = sets_.find_data(set, layout.group_member(g, k));
    if (member_slots[k] == CacheSets::kNone) {
      all_cached = false;
      break;
    }
  }

  const bool real = ssd_.real();
  if (all_cached) {
    // Member images live in arena scratch (released on every exit path,
    // including the heal_group early returns).
    ScratchPages data_sp(dd);
    std::vector<Page>& data = data_sp.vec();
    ScratchPage xor_scratch;
    std::vector<const Page*> ptrs(dd, nullptr);
    for (std::uint32_t k = 0; k < dd; ++k) {
      const CacheSets::CacheSlot& ms = sets_.slot(member_slots[k]);
      if (real) {
        if (ssd_.read_data(member_slots[k], data[k], plan) != IoStatus::kOk) {
          // Unreadable cache copy: leave ptrs[k] null so the array reads the
          // member from disk (which is current for clean AND old pages).
          note_media_fallback("member daz unreadable while cleaning");
          continue;
        }
        if (ms.state == PageState::kOld) {
          Delta d;
          if (!load_delta(ms, d, plan)) {
            note_media_fallback("member delta unreadable while cleaning");
            continue;
          }
          // Fold the delta in place: DAZ base ^ raw XOR == current version.
          xor_into(data[k], delta_xor_view(d, *xor_scratch));
        }
      } else {
        ssd_.read_data(member_slots[k], {}, plan);
        if (ms.state == PageState::kOld) charge_delta_read(ms, plan);
      }
      ptrs[k] = &data[k];
    }
    const IoStatus st = raid_.update_parity_reconstruct_cached(g, ptrs, plan);
    if (st != IoStatus::kOk) {
      note_media_fallback("reconstruct-write failed while cleaning");
      heal_group(g, plan);
      return !dirty_groups_.contains(g);
    }
  } else {
    ScratchPages diffs_sp(old_slots.size());
    std::vector<Page>& diffs = diffs_sp.vec();
    std::vector<GroupDelta> deltas;
    deltas.reserve(old_slots.size());
    for (std::size_t i = 0; i < old_slots.size(); ++i) {
      const CacheSets::CacheSlot& s = sets_.slot(old_slots[i]);
      if (real) {
        Delta d;
        if (!load_delta(s, d, plan)) {
          // One lost delta poisons the whole RMW: heal the group instead.
          note_media_fallback("delta unreadable for cleaning rmw");
          heal_group(g, plan);
          return !dirty_groups_.contains(g);
        }
        KDD_CHECK(delta_to_xor_into(d, diffs[i]));
      } else {
        charge_delta_read(s, plan);
      }
      deltas.push_back({layout.index_in_group(s.lba), &diffs[i]});
    }
    const IoStatus st = raid_.update_parity_rmw(g, deltas, plan);
    if (st != IoStatus::kOk) {
      note_media_fallback("parity rmw failed while cleaning");
      heal_group(g, plan);
      return !dirty_groups_.contains(g);
    }
  }

  // Reclaim (Section III-D): scheme 1 rewrites the combined page as clean;
  // scheme 2 (the paper's choice) simply drops old pages and their deltas.
  ScratchPage reclaim_sp;  // hoisted: one borrow for the whole reclaim loop
  ScratchPage reclaim_xor_sp;
  for (const std::uint32_t os : old_slots) {
    CacheSets::CacheSlot& s = sets_.slot(os);
    if (config_.reclaim_as_clean) {
      if (real) {
        Page& current = *reclaim_sp;
        Delta d;
        const bool readable = ssd_.read_data(os, current, plan) == IoStatus::kOk &&
                              load_delta(s, d, plan);
        if (!readable) {
          // Cannot rebuild the combined page: fall back to scheme-2 drop
          // (parity for the group is already up to date at this point).
          note_media_fallback("combined page unreadable at reclaim");
          invalidate_delta(os, plan);
          drop_old_page(os, plan);
          continue;
        }
        // DAZ base ^ raw XOR == combined page, computed in place.
        xor_into(current, delta_xor_view(d, *reclaim_xor_sp));
        invalidate_delta(os, plan);
        if (ssd_.write_data(os, SsdWriteKind::kWriteUpdate, current, plan) !=
            IoStatus::kOk) {
          note_media_fallback("reclaim rewrite failed");
          drop_old_page(os, plan);
          continue;
        }
      } else {
        ssd_.read_data(os, {}, plan);
        charge_delta_read(s, plan);
        invalidate_delta(os, plan);
        ssd_.write_data(os, SsdWriteKind::kWriteUpdate, {}, plan);
      }
      sets_.set_state(os, PageState::kClean);
      add_map_entry(os, plan);
      note_group_repair(raid_.layout().group_of(s.lba));
      --old_pages_;
    } else {
      invalidate_delta(os, plan);
      drop_old_page(os, plan);
    }
  }
  ++stats_.groups_cleaned;
  return !dirty_groups_.contains(g);
}

// ---------------------------------------------------------------------------
// Batched destage pipeline (DestageSource; see kdd/destage.hpp)
// ---------------------------------------------------------------------------

/// Self-contained destage work unit. `prepare` snapshots everything fold()
/// needs — captured Delta blobs and, for reconstruct-flavour groups, the DAZ
/// member images — so fold() runs with no policy lock and no access to live
/// cache state. Commit revalidates each captured page before acting on it.
class KddCache::BatchUnit final : public DestageUnit {
 public:
  struct PageWork {
    std::uint32_t daz_idx = 0;
    Lba lba = kInvalidLba;
    std::uint32_t index = 0;  ///< data index within the parity group
    Delta blob;               ///< delta captured at prepare (real mode)
    Page xor_diff;            ///< raw XOR diff, produced by fold()
    bool have_blob = false;
  };
  /// Reconstruct flavour only: one entry per data member of the stripe.
  struct MemberWork {
    std::uint32_t slot = 0;
    Page image;      ///< DAZ image captured at prepare (real mode)
    bool ok = false; ///< readable; when false the array reads the disk copy
  };
  struct GroupWork {
    GroupId group = 0;
    bool reconstruct = false;  ///< all members cached: reconstruct-write
    bool needs_heal = false;   ///< a delta was unloadable: commit heals
    std::vector<PageWork> pages;      ///< every old page of the group
    std::vector<MemberWork> members;  ///< reconstruct flavour, size data_disks
  };

  /// Stage 2 — pure compute over the snapshot, no lock: decompress every
  /// captured delta into its raw XOR diff; for reconstruct-flavour groups
  /// additionally fold each diff into its member image (DAZ base ^ raw XOR ==
  /// current version).
  void fold() override {
    const obs::SpanScope span(obs::Stage::kXorFold);
    if (!real_) return;
    for (GroupWork& gw : work_) {
      if (gw.needs_heal) continue;
      for (PageWork& pw : gw.pages) {
        if (!pw.have_blob) continue;
        pw.xor_diff = make_page();
        KDD_CHECK(delta_to_xor_into(pw.blob, pw.xor_diff));
        if (gw.reconstruct && gw.members[pw.index].ok) {
          xor_into(gw.members[pw.index].image, pw.xor_diff);
        }
      }
    }
  }

  std::span<const GroupId> groups() const override { return groups_; }

  std::vector<GroupId> groups_;
  std::vector<GroupWork> work_;
  bool real_ = false;
};

std::size_t KddCache::destage_batch_size() const {
  if (config_.destage_batch_groups > 0) return config_.destage_batch_groups;
  const auto high = static_cast<std::uint64_t>(
      config_.clean_high_watermark * static_cast<double>(sets_.pages()));
  const auto low = static_cast<std::uint64_t>(
      config_.clean_low_watermark * static_cast<double>(sets_.pages()));
  // Autosize from the watermark gap: each cleaned group frees its old pages
  // plus (amortised) its DEZ share, so a quarter-gap batch brings a cleaner
  // that woke at the high watermark back under low in a handful of pipeline
  // passes without claiming the whole dirty set at once.
  const std::uint64_t gap = high > low ? high - low : 1;
  return std::clamp<std::size_t>(static_cast<std::size_t>(gap / 4), 4, 64);
}

bool KddCache::destage_pending() const {
  const std::uint64_t high = effective_clean_high_pages();
  return old_pages_ + dez_pages_ > high &&
         claimed_groups_.size() < dirty_groups_.size();
}

std::vector<GroupId> KddCache::destage_claim(std::size_t max_groups) {
  std::vector<GroupId> cands;
  if (max_groups == 0) return cands;
  cands.reserve(dirty_groups_.size());
  for (const auto& [g, n] : dirty_groups_) {
    if (!claimed_groups_.contains(g)) cands.push_back(g);
  }
  // Disk-layout order: a batch destaged in (parity disk, parity page) order
  // walks each spindle sequentially instead of hopping between rotations.
  const RaidLayout& layout = raid_.layout();
  const bool has_parity = layout.geometry().parity_disks() > 0;
  std::sort(cands.begin(), cands.end(), [&](GroupId a, GroupId b) {
    if (has_parity) {
      const DiskAddr pa = layout.parity_addr(a);
      const DiskAddr pb = layout.parity_addr(b);
      if (pa.disk != pb.disk) return pa.disk < pb.disk;
      if (pa.page != pb.page) return pa.page < pb.page;
    }
    return a < b;
  });
  if (cands.size() > max_groups) cands.resize(max_groups);
  for (const GroupId g : cands) claimed_groups_.insert(g);
  return cands;
}

void KddCache::destage_abandon(std::span<const GroupId> groups) {
  for (const GroupId g : groups) claimed_groups_.erase(g);
}

std::unique_ptr<DestageUnit> KddCache::destage_prepare(
    std::span<const GroupId> groups, IoPlan* plan) {
  const obs::SpanScope span(obs::Stage::kDeltaLoad);
  const RaidLayout& layout = raid_.layout();
  const std::uint32_t dd = layout.geometry().data_disks();
  const bool real = ssd_.real();

  auto unit = std::make_unique<BatchUnit>();
  unit->real_ = real;
  for (const GroupId g : groups) {
    KDD_CHECK(claimed_groups_.contains(g));
    if (!dirty_groups_.contains(g)) {
      // Resolved behind the pipeline's back (emergency synchronous fold):
      // nothing left to destage, release the claim.
      claimed_groups_.erase(g);
      continue;
    }
    BatchUnit::GroupWork gw;
    gw.group = g;
    const std::uint32_t set = set_for(layout.group_member(g, 0));
    const std::uint32_t base = set * sets_.ways();
    for (std::uint32_t w = 0; w < sets_.ways(); ++w) {
      const CacheSets::CacheSlot& s = sets_.slot(base + w);
      if (s.state == PageState::kOld && layout.group_of(s.lba) == g) {
        BatchUnit::PageWork pw;
        pw.daz_idx = base + w;
        pw.lba = s.lba;
        pw.index = layout.index_in_group(s.lba);
        gw.pages.push_back(std::move(pw));
      }
    }
    KDD_CHECK(!gw.pages.empty());

    // Reconstruct-write when every data member is cache-resident
    // (Section III-D), exactly like the per-group cleaner.
    std::vector<std::uint32_t> member_slots(dd, CacheSets::kNone);
    gw.reconstruct = true;
    for (std::uint32_t k = 0; k < dd; ++k) {
      member_slots[k] = sets_.find_data(set, layout.group_member(g, k));
      if (member_slots[k] == CacheSets::kNone) {
        gw.reconstruct = false;
        break;
      }
    }

    if (gw.reconstruct) {
      gw.members.resize(dd);
      for (std::uint32_t k = 0; k < dd; ++k) {
        BatchUnit::MemberWork& mw = gw.members[k];
        mw.slot = member_slots[k];
        if (real) {
          mw.image = make_page();
          if (ssd_.read_data(mw.slot, mw.image, plan) != IoStatus::kOk) {
            // Unreadable cache copy: leave ok false so the array reads the
            // member from disk (current for clean AND old pages).
            note_media_fallback("member daz unreadable while cleaning");
            continue;
          }
          mw.ok = true;
        } else {
          ssd_.read_data(mw.slot, {}, plan);
          mw.ok = true;
        }
      }
      for (BatchUnit::PageWork& pw : gw.pages) {
        const CacheSets::CacheSlot& s = sets_.slot(pw.daz_idx);
        if (real) {
          if (!load_delta(s, pw.blob, plan)) {
            note_media_fallback("member delta unreadable while cleaning");
            gw.members[pw.index].ok = false;  // disk copy stands in
            continue;
          }
          pw.have_blob = true;
        } else {
          charge_delta_read(s, plan);
        }
      }
    } else {
      for (BatchUnit::PageWork& pw : gw.pages) {
        const CacheSets::CacheSlot& s = sets_.slot(pw.daz_idx);
        if (real) {
          if (!load_delta(s, pw.blob, plan)) {
            // One lost delta poisons the whole RMW: commit heals the group.
            note_media_fallback("delta unreadable for cleaning rmw");
            gw.needs_heal = true;
            break;
          }
          pw.have_blob = true;
        } else {
          charge_delta_read(s, plan);
        }
      }
    }
    unit->groups_.push_back(g);
    unit->work_.push_back(std::move(gw));
  }
  if (unit->groups_.empty()) return nullptr;
  return unit;
}

void KddCache::destage_commit(DestageUnit& u, IoPlan* plan) {
  auto& unit = static_cast<BatchUnit&>(u);
  const obs::SpanScope span(obs::Stage::kDestageWrite);
  const bool real = ssd_.real();
  kdd_metrics().destage_batch_groups.observe(unit.groups_.size());

  // Pass 1 — revalidate against live slot state and update parity. Groups
  // whose pages were all resolved behind the pipeline (no longer dirty) are
  // skipped; individual pages resolved behind the pipeline are dropped from
  // the group so their diff is never double-applied. Reconstruct-flavour
  // groups commit one by one; RMW-flavour groups coalesce into a single
  // batched call (one parity read + one fold + one parity write per group).
  std::vector<BatchUnit::GroupWork*> rmw_groups;
  std::vector<std::vector<GroupDelta>> rmw_deltas;  // stable inner buffers
  std::vector<BatchUnit::GroupWork*> reclaimable;
  rmw_groups.reserve(unit.work_.size());
  rmw_deltas.reserve(unit.work_.size());
  reclaimable.reserve(unit.work_.size());
  for (BatchUnit::GroupWork& gw : unit.work_) {
    if (!dirty_groups_.contains(gw.group)) continue;
    if (gw.needs_heal) {
      heal_group(gw.group, plan);
      continue;
    }
    std::erase_if(gw.pages, [&](const BatchUnit::PageWork& pw) {
      const CacheSets::CacheSlot& s = sets_.slot(pw.daz_idx);
      return s.state != PageState::kOld || s.lba != pw.lba;
    });
    if (gw.pages.empty()) continue;  // nothing left that we captured
    if (gw.reconstruct) {
      std::vector<const Page*> ptrs(gw.members.size(), nullptr);
      for (std::size_t k = 0; k < gw.members.size(); ++k) {
        if (real && gw.members[k].ok) ptrs[k] = &gw.members[k].image;
      }
      const IoStatus st =
          raid_.update_parity_reconstruct_cached(gw.group, ptrs, plan);
      if (st != IoStatus::kOk) {
        note_media_fallback("reconstruct-write failed while cleaning");
        heal_group(gw.group, plan);
        continue;
      }
      reclaimable.push_back(&gw);
    } else {
      std::vector<GroupDelta> deltas;
      if (real) {
        deltas.reserve(gw.pages.size());
        for (const BatchUnit::PageWork& pw : gw.pages) {
          KDD_CHECK(pw.have_blob);
          deltas.push_back({pw.index, &pw.xor_diff});
        }
      }
      rmw_deltas.push_back(std::move(deltas));
      rmw_groups.push_back(&gw);
    }
  }
  if (!rmw_groups.empty()) {
    std::vector<GroupParityUpdate> updates(rmw_groups.size());
    for (std::size_t i = 0; i < rmw_groups.size(); ++i) {
      updates[i].group = rmw_groups[i]->group;
      updates[i].deltas = rmw_deltas[i];
      updates[i].finalize = true;
    }
    std::vector<GroupId> failed;
    (void)raid_.update_parity_rmw_batch(updates, plan, &failed);
    for (BatchUnit::GroupWork* gw : rmw_groups) {
      if (std::find(failed.begin(), failed.end(), gw->group) != failed.end()) {
        note_media_fallback("parity rmw failed while cleaning");
        heal_group(gw->group, plan);
        continue;
      }
      reclaimable.push_back(gw);
    }
  }

  // Pass 2 — reclaim (Section III-D): scheme 1 rewrites the combined page as
  // clean (DAZ base ^ raw XOR, using the diff fold() already produced);
  // scheme 2 drops old pages and their deltas.
  ScratchPage reclaim_sp;  // hoisted: one borrow for the whole reclaim loop
  for (BatchUnit::GroupWork* gw : reclaimable) {
    for (BatchUnit::PageWork& pw : gw->pages) {
      CacheSets::CacheSlot& s = sets_.slot(pw.daz_idx);
      if (config_.reclaim_as_clean) {
        if (real) {
          Page& current = *reclaim_sp;
          const bool readable =
              pw.have_blob &&
              ssd_.read_data(pw.daz_idx, current, plan) == IoStatus::kOk;
          if (!readable) {
            // Cannot rebuild the combined page: fall back to scheme-2 drop
            // (parity for the group is already up to date at this point).
            note_media_fallback("combined page unreadable at reclaim");
            invalidate_delta(pw.daz_idx, plan);
            drop_old_page(pw.daz_idx, plan);
            continue;
          }
          xor_into(current, pw.xor_diff);
          invalidate_delta(pw.daz_idx, plan);
          if (ssd_.write_data(pw.daz_idx, SsdWriteKind::kWriteUpdate, current,
                              plan) != IoStatus::kOk) {
            note_media_fallback("reclaim rewrite failed");
            drop_old_page(pw.daz_idx, plan);
            continue;
          }
        } else {
          ssd_.read_data(pw.daz_idx, {}, plan);
          charge_delta_read(s, plan);
          invalidate_delta(pw.daz_idx, plan);
          ssd_.write_data(pw.daz_idx, SsdWriteKind::kWriteUpdate, {}, plan);
        }
        sets_.set_state(pw.daz_idx, PageState::kClean);
        add_map_entry(pw.daz_idx, plan);
        note_group_repair(raid_.layout().group_of(s.lba));
        --old_pages_;
      } else {
        invalidate_delta(pw.daz_idx, plan);
        drop_old_page(pw.daz_idx, plan);
      }
    }
    ++stats_.groups_cleaned;
  }

  for (const GroupId g : unit.groups_) claimed_groups_.erase(g);
  refresh_dez_gauges();
}

void KddCache::flush(IoPlan* plan) {
  const obs::TraceContextScope trace(obs::Stage::kClean);  // background root
  clean_all(plan);
  KDD_CHECK(nvram_->staging.empty());
  log_.commit_buffer(plan);
  // Flush barrier: every committed page must be on the SSD, not in RAM.
  ssd_.force_seal(plan);
}

void KddCache::on_idle(IoPlan* plan) {
  // Background root: nested cleaning spans sample at the request period
  // instead of recording every pass wholesale.
  const obs::TraceContextScope trace(obs::Stage::kClean);
  clean_all(plan);
  // An idle device is the cheapest time to drain a partial segment, and it
  // bounds how long a committed page can sit in RAM.
  ssd_.force_seal(plan);
  // A quiet array is the cheapest time to make rebuild progress: one full
  // unthrottled chunk per idle event.
  if (rebuild_ && rebuild_->health() != ArrayHealth::kHealthy) {
    rebuild_->pump(plan, /*urgent=*/true);
  }
}

// ---------------------------------------------------------------------------
// Failure handling (Section III-E)
// ---------------------------------------------------------------------------

std::uint64_t KddCache::handle_disk_failure(std::uint32_t disk) {
  KDD_CHECK(raid_.real());
  // Forced root: failure handling is rare and high-value, so it is traced
  // even under aggressive request sampling.
  const obs::TraceContextScope trace(obs::Stage::kRecovery, /*always_sample=*/true);
  KDD_LOG(Info, "disk %u failed: cleaning stale parity, then rebuilding", disk);
  raid_.array()->fail_disk(disk);
  // First bring every stale parity up to date through the parity_update
  // interface, then rebuild at the RAID layer.
  clean_all(nullptr);
  ssd_.force_seal(nullptr);
  return raid_.array()->rebuild_disk(disk);
}

std::uint64_t KddCache::handle_ssd_failure() {
  KDD_CHECK(raid_.real() && ssd_.real());
  const obs::TraceContextScope trace(obs::Stage::kRecovery, /*always_sample=*/true);
  KDD_LOG(Info, "cache ssd failed: resyncing stale groups, restarting cold");
  ssd_.device()->fail();
  // Data blocks were always dispatched to RAID, so reconstruct-write over the
  // stale groups resynchronises the array without the cache.
  const std::uint64_t resynced = raid_.array()->resync_all_stale();
  // Swap in a fresh cache device and restart cold.
  ssd_.replace_device();
  for (std::uint32_t i = 0; i < sets_.pages(); ++i) {
    if (sets_.slot(i).state != PageState::kFree) sets_.reset_slot(i);
    sets_.slot(i).home_log_page = CacheSets::kNoHome;
  }
  nvram_->staging.take_all();
  nvram_->metadata.drain();
  nvram_->log_head = nvram_->log_tail = 0;
  dirty_groups_.clear();
  stale_since_.clear();
  old_pages_ = dez_pages_ = 0;
  dez_space_.clear();
  refresh_dez_gauges();
  return resynced;
}

// ---------------------------------------------------------------------------
// Invariant checking (test support)
// ---------------------------------------------------------------------------

void KddCache::check_invariants() const {
  std::unordered_map<std::uint32_t, std::uint16_t> dez_refs;  // dez slot -> #old refs
  std::unordered_map<std::uint32_t, std::uint64_t> dez_ref_bytes;
  std::unordered_map<GroupId, std::uint32_t> group_old;
  std::uint64_t old_count = 0;
  std::uint64_t dez_count = 0;
  std::uint64_t staged_refs = 0;

  for (std::uint32_t set = 0; set < sets_.num_sets(); ++set) {
    std::uint32_t free_in_set = 0;
    std::uint32_t dez_in_set = 0;
    for (std::uint32_t w = 0; w < sets_.ways(); ++w) {
      const std::uint32_t idx = set * sets_.ways() + w;
      const CacheSets::CacheSlot& s = sets_.slot(idx);
      switch (s.state) {
        case PageState::kFree:
          ++free_in_set;
          break;
        case PageState::kClean:
          KDD_CHECK(s.lba != kInvalidLba);
          // Clean pages carry no delta.
          KDD_CHECK(s.dez_idx == CacheSets::kNone);
          break;
        case PageState::kOld: {
          KDD_CHECK(s.lba != kInvalidLba);
          ++old_count;
          ++group_old[raid_.layout().group_of(s.lba)];
          if (s.dez_idx == CacheSets::kStaged) {
            const StagedDelta* d = nvram_->staging.find(s.lba);
            KDD_CHECK(d != nullptr);
            KDD_CHECK(d->daz_idx == idx);
            ++staged_refs;
          } else {
            KDD_CHECK(s.dez_idx != CacheSets::kNone);
            KDD_CHECK(sets_.slot(s.dez_idx).state == PageState::kDelta);
            KDD_CHECK(s.dez_off + s.dez_len <= kPageSize);
            ++dez_refs[s.dez_idx];
            dez_ref_bytes[s.dez_idx] += s.dez_len;
          }
          break;
        }
        case PageState::kDelta:
          ++dez_in_set;
          ++dez_count;
          break;
        case PageState::kOldVersion:
        case PageState::kNewVersion:
          KDD_CHECK(false);  // LeavO-only states never appear in KDD
          break;
      }
    }
    KDD_CHECK(free_in_set == sets_.free_count(set));
    KDD_CHECK(dez_in_set == sets_.dez_count(set));
  }

  KDD_CHECK(old_count == old_pages_);
  KDD_CHECK(dez_count == dez_pages_);
  // Every staged delta belongs to exactly one old page and vice versa.
  KDD_CHECK(staged_refs == nvram_->staging.size());
  // DEZ valid counts match the number of live references, and the extent
  // accounting (live bytes / counts per DEZ page) matches the slot mappings.
  for (const auto& [dez_idx, refs] : dez_refs) {
    KDD_CHECK(sets_.slot(dez_idx).valid_count == refs);
    KDD_CHECK(dez_space_.tracked(dez_idx));
    const DezSpace::Extent& e = dez_space_.extent(dez_idx);
    KDD_CHECK(e.live_count == refs);
    KDD_CHECK(e.live_bytes == dez_ref_bytes.at(dez_idx));
    KDD_CHECK(e.live_bytes <= e.tail && e.tail <= kPageSize);
  }
  std::uint64_t referenced_dez = dez_refs.size();
  KDD_CHECK(referenced_dez == dez_count);  // no orphaned DEZ pages
  KDD_CHECK(dez_space_.pages() == dez_count);
  // Dirty-group bookkeeping matches slot states, and stale groups at the
  // RAID layer are exactly the groups with pending deltas.
  KDD_CHECK(group_old.size() == dirty_groups_.size());
  for (const auto& [g, n] : group_old) {
    const auto it = dirty_groups_.find(g);
    KDD_CHECK(it != dirty_groups_.end() && it->second == n);
    KDD_CHECK(raid_.group_stale(g));
  }
  KDD_CHECK(raid_.stale_group_count() == dirty_groups_.size());
}

// ---------------------------------------------------------------------------
// Power-failure recovery (Section III-E1)
// ---------------------------------------------------------------------------

void KddCache::recover() {
  KDD_CHECK(ssd_.real());
  // Forced root: power-failure recovery runs once and must show up in the
  // trace regardless of the sampling period.
  const obs::TraceContextScope trace(obs::Stage::kRecovery, /*always_sample=*/true);
  kdd_metrics().recoveries.inc();
  // 0. Segment staging: accept or discard the segment whose flush may have
  //    been in flight at the cut. Must run before the log replay and the
  //    torn-page audit — a discarded segment marks exactly its listed pages
  //    unreadable, which the steps below then skip, retire or heal.
  ssd_.recover_staging();
  // 1. Head/tail counters come from NVRAM (already in nvram_). Rebuild the
  //    log's in-memory page lists and replay the committed entries.
  log_.rebuild_after_recovery();
  std::vector<MetadataEntry> entries = log_.replay();
  // 2. Overlay the NVRAM metadata buffer (newer than anything in the log).
  for (const MetadataEntry& e : nvram_->metadata.entries()) entries.push_back(e);

  // Later entries override earlier ones per slot.
  std::unordered_map<std::uint32_t, MetadataEntry> latest;
  for (const MetadataEntry& e : entries) latest[e.daz_idx] = e;

  for (const auto& [idx, e] : latest) {
    if (e.state == PageState::kFree) continue;
    KDD_CHECK(e.state == PageState::kClean || e.state == PageState::kOld);
    CacheSets::CacheSlot& s = sets_.slot(idx);
    s.lba = e.lba_raid;
    sets_.set_state(idx, e.state);
    if (e.state == PageState::kOld) {
      s.dez_idx = e.dez_idx;
      s.dez_off = e.dez_off;
      s.dez_len = e.dez_len;
      note_old_transition(idx);
    }
  }
  // 3. Recompute DEZ page states and valid counts from the old pages, and
  //    rebuild the extent census (tail is the max mapped end offset — a lower
  //    bound on the bytes packed at commit; see DezSpace::restore_page).
  struct ExtentCensus {
    std::uint32_t tail = 0, live_bytes = 0, live_count = 0;
  };
  std::unordered_map<std::uint32_t, ExtentCensus> census;
  for (std::uint32_t i = 0; i < sets_.pages(); ++i) {
    const CacheSets::CacheSlot& s = sets_.slot(i);
    if (s.state != PageState::kOld) continue;
    if (s.dez_idx == CacheSets::kNone || s.dez_idx == CacheSets::kStaged) continue;
    ExtentCensus& c = census[s.dez_idx];
    c.tail = std::max(c.tail, static_cast<std::uint32_t>(s.dez_off + s.dez_len));
    c.live_bytes += s.dez_len;
    ++c.live_count;
  }
  // Mixed-generation audit. A mapping's supersede (a destage record) can ride
  // a metadata-log page that died with the torn segment after the NVRAM
  // buffer evicted it, while mappings minted later survive in NVRAM — so the
  // replay can resurrect a stale mapping generation alongside a durable newer
  // one for the same DEZ page. That surfaces as a census that is
  // self-inconsistent: summed live bytes exceeding the max end offset, or an
  // end offset past the page. None of the extent's mappings can be told
  // apart by generation, and the RAID copy of every mapped page is current
  // (write_page_nopar lands before any delta is staged), so drop every
  // mapping into the extent; the affected groups resync from data below.
  std::unordered_set<std::uint32_t> mixed;
  for (const auto& [dez_idx, c] : census) {
    if (c.tail > kPageSize || c.live_bytes > c.tail) mixed.insert(dez_idx);
  }
  for (const std::uint32_t dez_idx : mixed) {
    census.erase(dez_idx);
    note_media_fallback("mixed-generation dez mappings at recovery");
    ssd_.trim_data(dez_idx);
    for (std::uint32_t i = 0; i < sets_.pages(); ++i) {
      CacheSets::CacheSlot& s = sets_.slot(i);
      if (s.state != PageState::kOld || s.dez_idx != dez_idx) continue;
      s.dez_idx = CacheSets::kNone;
      s.dez_off = 0;
      s.dez_len = 0;
      drop_old_page(i, nullptr);
    }
  }
  for (std::uint32_t i = 0; i < sets_.pages(); ++i) {
    const CacheSets::CacheSlot& s = sets_.slot(i);
    if (s.state != PageState::kOld) continue;
    if (s.dez_idx == CacheSets::kNone || s.dez_idx == CacheSets::kStaged) continue;
    CacheSets::CacheSlot& dez = sets_.slot(s.dez_idx);
    if (dez.state != PageState::kDelta) {
      sets_.set_state(s.dez_idx, PageState::kDelta);
      dez.valid_count = 0;
      ++dez_pages_;
    }
    ++dez.valid_count;
  }
  for (const auto& [dez_idx, c] : census) {
    dez_space_.restore_page(dez_idx, c.tail, c.live_bytes, c.live_count);
  }
  // 4. Overlay the staged deltas from NVRAM: they supersede any DEZ-resident
  //    delta recorded in the log for the same page. A staged delta whose slot
  //    does not match (the crash hit between NVRAM staging and the metadata
  //    append) is an orphan: its page cannot be trusted, so the whole group
  //    is healed from the RAID copy.
  std::vector<Lba> orphaned;
  for (const StagedDelta& sd : nvram_->staging.entries()) {
    CacheSets::CacheSlot& s = sets_.slot(sd.daz_idx);
    if (s.lba != sd.lba ||
        (s.state != PageState::kClean && s.state != PageState::kOld)) {
      orphaned.push_back(sd.lba);
      continue;
    }
    if (s.state == PageState::kClean) {
      sets_.set_state(sd.daz_idx, PageState::kOld);
      note_old_transition(sd.daz_idx);
    } else {
      if (s.dez_idx != CacheSets::kStaged && s.dez_idx != CacheSets::kNone) {
        CacheSets::CacheSlot& dez = sets_.slot(s.dez_idx);
        KDD_CHECK(dez.state == PageState::kDelta && dez.valid_count > 0);
        dez_space_.on_dead(s.dez_idx, s.dez_len);
        if (--dez.valid_count == 0) {
          ssd_.trim_data(s.dez_idx);
          sets_.reset_slot(s.dez_idx);
          dez_space_.on_free(s.dez_idx);
          --dez_pages_;
        }
      }
    }
    s.dez_idx = CacheSets::kStaged;
    s.dez_off = 0;
    s.dez_len = static_cast<std::uint16_t>(sd.packed_size);
  }
  for (const Lba lba : orphaned) {
    note_media_fallback("orphaned staged delta at recovery");
    nvram_->staging.erase(lba);
    heal_group(raid_.layout().group_of(lba), nullptr);
  }

  // 5. Torn-page audit (prototype mode): a power cut can tear the very DAZ or
  //    DEZ page whose write was in flight, and the device itself cannot
  //    detect it. The RAID copy is the ground truth for every mapped page
  //    (clean == the RAID contents; old + delta == the RAID contents), so
  //    cross-check each slot and retire/heal whatever fails.
  if (raid_.real()) {
    Page truth = make_page();
    Page daz = make_page();
    std::unordered_set<GroupId> bad_groups;
    for (std::uint32_t i = 0; i < sets_.pages(); ++i) {
      const CacheSets::CacheSlot& s = sets_.slot(i);
      // When the page's member is down (crash landed mid-rebuild), the array
      // cannot produce the truth — the cache copy IS the authority for that
      // page. The checksummed SSD read stands in as the audit: a torn DAZ or
      // delta write surfaces as a device-level read failure.
      if (s.state == PageState::kClean) {
        bool good = ssd_.read_data(i, daz, nullptr) == IoStatus::kOk;
        if (good && !page_down(s.lba)) {
          good = raid_.read_page(s.lba, truth, nullptr) == IoStatus::kOk &&
                 std::equal(daz.begin(), daz.end(), truth.begin());
        }
        if (!good) {
          note_media_fallback("clean page failed torn-page audit");
          ssd_.trim_data(i);
          sets_.reset_slot(i);
          on_evict_slot(i);
        }
      } else if (s.state == PageState::kOld) {
        Delta d;
        bool good = ssd_.read_data(i, daz, nullptr) == IoStatus::kOk &&
                    load_delta(s, d, nullptr);
        if (good && !page_down(s.lba)) {
          good = raid_.read_page(s.lba, truth, nullptr) == IoStatus::kOk;
          if (good) {
            const Page current = apply_delta(daz, d);
            good = std::equal(current.begin(), current.end(), truth.begin());
          }
        }
        if (!good) bad_groups.insert(raid_.layout().group_of(s.lba));
      }
    }
    for (const GroupId g : bad_groups) {
      note_media_fallback("old page failed torn-page audit");
      heal_group(g, nullptr);
    }

    // 6. Any group left stale at the RAID layer without a matching pending
    //    delta (its staged delta died with the in-flight request) is resynced
    //    from data — the array's contents are always current.
    for (const GroupId g : raid_.array()->stale_groups()) {
      if (!dirty_groups_.contains(g)) raid_.array()->resync_group(g);
    }
  }
  KDD_LOG(Info,
          "recovery complete: old=%llu dez=%llu staged=%llu dirty_groups=%zu "
          "healed=%llu",
          static_cast<unsigned long long>(old_pages_),
          static_cast<unsigned long long>(dez_pages_),
          static_cast<unsigned long long>(nvram_->staging.size()),
          dirty_groups_.size(), static_cast<unsigned long long>(groups_healed_));
}

}  // namespace kdd
