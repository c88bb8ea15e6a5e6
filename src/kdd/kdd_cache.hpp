// KDD — Keeping Data and Deltas in SSD (the paper's core contribution,
// Section III).
//
// The SSD cache is dynamically partitioned into a Data Zone (DAZ: pages in
// state clean/old) and a Delta Zone (DEZ: pages packed with compressed
// deltas). On a write hit, the new data goes to the RAID array *without* a
// parity update (the small-write fix); the compressed XOR of the old and new
// version is staged in NVRAM and later packed, many-per-page, into a DEZ
// page. Stale parity is regenerated by a background cleaner via RMW
// (P_stale XOR deltas) or reconstruct-write (when the whole stripe is cache-
// resident). Cache mappings persist in a circular metadata log so the cache
// survives power failures with RPO = 0.
//
// State machine per cache page (Section III-B):
//   free -> clean          data admitted on read/write miss (DAZ)
//   clean -> old           write hit; delta staged, parity now stale
//   free -> delta          staging buffer committed into a DEZ page
//   old/delta -> free      background cleaning after parity update
//   clean -> free          LRU eviction
#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/dez_space.hpp"
#include "cache/ghost_lru.hpp"
#include "cache/metadata_log.hpp"
#include "cache/nvram.hpp"
#include "cache/policy.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "kdd/destage.hpp"
#include "kdd/request_engine.hpp"
#include "raid/rebuild.hpp"

namespace kdd {

class KddCache final : public BlockCacheBase,
                       public DestageSource,
                       public SpeculativeWriteSource {
 public:
  /// Counter mode (Section IV-A): delta compression ratios drawn from a
  /// Gaussian with mean config.delta_ratio_mean. `nvram` may be null (an
  /// internal instance is created).
  KddCache(const PolicyConfig& config, const RaidGeometry& geo,
           NvramState* nvram = nullptr);

  /// Prototype mode (Section IV-B): real data, real compression. Pass the
  /// NvramState that survived a crash plus recover = true to rebuild the
  /// primary map from the metadata log and NVRAM buffers (Section III-E1).
  KddCache(const PolicyConfig& config, RaidArray* array, SsdModel* ssd,
           NvramState* nvram = nullptr, bool recover = false);

  ~KddCache() override;

  std::string name() const override { return "KDD"; }

  IoStatus read(Lba lba, std::span<std::uint8_t> out, IoPlan* plan = nullptr) override;
  IoStatus write(Lba lba, std::span<const std::uint8_t> data,
                 IoPlan* plan = nullptr) override;

  /// Updates all stale parity, reclaims old/delta pages and commits buffered
  /// metadata. After flush() the RAID array scrubs clean.
  void flush(IoPlan* plan = nullptr) override;

  /// Background cleaning trigger (idle event, Section III-D).
  void on_idle(IoPlan* plan = nullptr) override;

  /// Orchestrates recovery from an HDD failure (Section III-E2): flushes all
  /// stale parity via the parity-update interface, then rebuilds the failed
  /// disk at the RAID layer. Prototype mode only. Returns the number of
  /// groups that were rebuilt from stale parity — always 0, which is the
  /// point: KDD closes LeavO's vulnerability window.
  std::uint64_t handle_disk_failure(std::uint32_t disk);

  /// Attaches the online rebuild/degraded-mode engine (prototype mode only).
  /// The cache wires itself in as the engine's stripe barrier (dirty parity
  /// groups ahead of the rebuild cursor are force-destaged / delta-folded
  /// before their stripes are reconstructed) and as its checkpoint sink (the
  /// cursor persists in NVRAM so a crash mid-rebuild resumes instead of
  /// restarting). Pass nullptr to detach. After a power failure, call
  /// RebuildEngine::resume() from the surviving NvramState BEFORE
  /// constructing the recovering cache.
  void bind_rebuild_engine(RebuildEngine* engine);
  RebuildEngine* rebuild_engine() { return rebuild_; }

  /// Online counterpart of handle_disk_failure(): fails `disk` at the array
  /// and starts an incremental rebuild that proceeds in the background while
  /// foreground I/O keeps flowing (reads of lost pages are served cache-first
  /// or by delta-fold + reconstruction). Requires bind_rebuild_engine().
  /// Returns true when the rebuild started (false: no spare — the array stays
  /// degraded until the pool is restocked).
  bool handle_disk_failure_online(std::uint32_t disk);

  /// Force-destages every dirty parity group in [begin, end) — the engine's
  /// stripe barrier. Returns false when some group could not be cleaned right
  /// now (e.g. claimed by a concurrent destage batch); the rebuild step is
  /// deferred, not skipped.
  bool destage_range(GroupId begin, GroupId end, IoPlan* plan);

  /// Orchestrates recovery from an SSD (cache device) failure: the array is
  /// resynchronised by reconstruct-write and the cache restarts cold.
  /// Prototype mode only. Returns the number of groups resynced.
  std::uint64_t handle_ssd_failure();

  /// Seals and flushes the open staging segment (no-op with segment staging
  /// off). Quiesce/barrier call sites use this so "no request in flight"
  /// also means "no committed page parked in RAM".
  IoStatus force_seal(IoPlan* plan = nullptr) { return ssd_.force_seal(plan); }

  // -- DestageSource (batched destage pipeline, see kdd/destage.hpp) --------
  std::vector<GroupId> destage_claim(std::size_t max_groups) override;
  std::unique_ptr<DestageUnit> destage_prepare(std::span<const GroupId> groups,
                                               IoPlan* plan) override;
  void destage_commit(DestageUnit& unit, IoPlan* plan) override;
  void destage_abandon(std::span<const GroupId> groups) override;
  bool destage_pending() const override;
  void set_external_cleaner(bool external) override { external_cleaner_ = external; }
  std::size_t destage_batch_hint() const override { return destage_batch_size(); }

  /// Groups per destage batch (config override or watermark-gap autosize).
  std::size_t destage_batch_size() const;

  // -- SpeculativeWriteSource (async/concurrent front ends) -----------------
  // Lets the caller compute the write-hit delta — the dominant per-request
  // CPU cost — outside the lock that serialises this (single-threaded)
  // policy. Prototype mode only; counter mode never speculates because its
  // sampled delta sizes must consume rng_ draws in request order.
  Snapshot write_snapshot(Lba lba, std::span<std::uint8_t> base) override;
  IoStatus write_prepared(Lba lba, std::span<const std::uint8_t> data,
                          const Snapshot& snap, PreparedDelta&& delta,
                          IoPlan* plan) override;

  // -- Introspection (tests, benches) ---------------------------------------
  std::uint64_t old_pages() const { return old_pages_; }
  std::uint64_t dez_pages() const { return dez_pages_; }
  std::uint64_t staged_deltas() const { return nvram_->staging.size(); }
  std::uint64_t stale_groups() const { return raid_.stale_group_count(); }
  const MetadataLog& metadata_log() const { return log_; }
  NvramState& nvram() { return *nvram_; }
  std::uint64_t delta_fallbacks() const { return delta_fallbacks_; }
  /// Cache-device faults absorbed by falling back to the RAID copy.
  std::uint64_t media_fallbacks() const { return media_fallbacks_; }
  /// Parity groups whose pending deltas were discarded wholesale because a
  /// cache page needed to repair the group became unreadable (heal_group).
  std::uint64_t groups_healed() const { return groups_healed_; }
  /// Requests whose page lived on a down member but were served from the
  /// cache (clean copy or DAZ+delta combine) without touching the array.
  std::uint64_t degraded_cache_hits() const { return degraded_cache_hits_; }
  /// Degraded requests the array refused (stale group, lost member) that
  /// succeeded after the cache folded the group's deltas and retried.
  std::uint64_t degraded_delta_folds() const { return degraded_delta_folds_; }

  // -- Delta-zone accounting and the adaptive boundary ----------------------
  /// Packed bytes still referenced / already invalidated across all DEZ
  /// pages. Dead bytes are the holes superseded deltas leave in write-once
  /// DEZ pages; a page returns to the DAZ when its last delta dies.
  std::uint64_t dez_live_bytes() const { return dez_space_.live_bytes(); }
  std::uint64_t dez_dead_bytes() const { return dez_space_.dead_bytes(); }
  /// Adaptive DAZ/DEZ boundary: the current cap on DEZ pages (0 = static
  /// layout, no cap).
  std::uint64_t dez_boundary_pages() const { return dez_limit_pages_; }
  /// Headroom between the boundary and actual DEZ usage, spent as
  /// burst/degraded cleaning slack (see effective_clean_high_pages()).
  std::uint64_t elastic_spare_pages() const;
  /// Cleaning high watermark in pages after the elastic-spare boost (equals
  /// the configured watermark whenever the spare is zero).
  std::uint64_t effective_clean_high_pages() const;
  std::uint64_t boundary_moves() const { return boundary_moves_; }
  const DezSpace& dez_space() const { return dez_space_; }

  /// Exhaustively validates the internal data-structure invariants (per-set
  /// counters, delta bookkeeping, DEZ valid counts, dirty-group accounting,
  /// staging consistency, stale-group agreement). Aborts via KDD_CHECK on
  /// violation; O(cache size). Used by the randomized fuzz tests.
  void check_invariants() const;

  /// How long parity groups stayed stale before being repaired, measured in
  /// requests processed (counter/prototype modes have no wall clock). This
  /// quantifies the reliability exposure KDD's deferral creates: a disk that
  /// dies while a group is stale forces reconstruct-resync of that group.
  const LatencyHistogram& staleness_exposure() const { return staleness_ages_; }

 protected:
  void on_evict_slot(std::uint32_t idx) override;

 private:
  /// Concrete DestageUnit: per-group captured deltas (RMW flavour) or member
  /// images (reconstruct flavour) plus the raw XOR diffs fold() produces.
  class BatchUnit;

  struct DeltaInfo {
    std::uint32_t packed = 0;  ///< bytes when packed into a DEZ page
    Delta blob;                ///< real payload (prototype mode only)
    bool ok = true;            ///< false if the DAZ base could not be read
  };

  /// Reads the DAZ page and produces the delta between it and `data`
  /// (prototype) or samples a size (counter mode). `ok` is false when the
  /// DAZ copy is unreadable (media error / torn page) — the caller must fall
  /// back to a conventional write path.
  DeltaInfo compute_delta(std::uint32_t daz_idx, std::span<const std::uint8_t> data,
                          IoPlan* plan);

  /// Loads the (real) delta of an old page from NVRAM or its DEZ page into
  /// `out`. Returns false when the delta cannot be recovered (DEZ page
  /// unreadable / torn, or the staged entry vanished) — the caller must heal
  /// the group instead of folding garbage into parity.
  bool load_delta(const CacheSets::CacheSlot& slot, Delta& out, IoPlan* plan);

  /// In counter mode, charges the SSD read for a DEZ-resident delta.
  void charge_delta_read(const CacheSets::CacheSlot& slot, IoPlan* plan);

  /// Per-request bookkeeping shared by write() and write_prepared(): op
  /// counting plus the rebuild-engine foreground hooks.
  void write_preamble(IoPlan* plan);
  /// write() minus the root span and preamble (so the speculative fallback
  /// can retry without double-counting the request).
  IoStatus write_inner(Lba lba, std::span<const std::uint8_t> data, IoPlan* plan);
  /// A write hit's three independent chains: the DAZ base read, the array
  /// write without parity update, and the staging-buffer commit (DEZ page
  /// write, then the metadata page that maps it).
  enum WriteHitLane : std::size_t { kBaseLane, kArrayLane, kCommitLane, kWriteHitLanes };
  using WriteHitFork = PlanFork<kWriteHitLanes>;
  /// The write-hit tail: consumes a computed DeltaInfo for the hit at `idx`
  /// (state kClean or kOld) and finishes the request. The base read is
  /// already in `fork`'s base lane (or was read with no plan); every
  /// fallback joins the fork and then runs serially.
  IoStatus write_hit_locked(Lba lba, std::span<const std::uint8_t> data,
                            std::uint32_t set, std::uint32_t idx, DeltaInfo info,
                            WriteHitFork& fork);

  void stage_delta(Lba lba, std::uint32_t daz_idx, DeltaInfo info, IoPlan* plan);

  /// Packs all staged deltas first-fit into fresh, write-once DEZ pages
  /// (Section III-B), preserving FIFO order.
  void commit_staging(IoPlan* plan);

  /// One DEZ page write: packs `run` from offset 0 into the free slot
  /// `dest`, writes the page image, and on success maps `dest` as a DEZ page,
  /// repoints each source DAZ slot and logs the new mapping. Write-before-map:
  /// the page is on media before any metadata names it. On failure no state
  /// is touched — the caller folds the run into parity instead.
  IoStatus write_dez_run(std::uint32_t dest, std::span<const StagedDelta> run,
                         IoPlan* plan);

  /// Adaptive DAZ/DEZ boundary (config_.adaptive_boundary): epoch-based,
  /// dead-banded, bounded-step adjustment of dez_limit_pages_ from the
  /// compressibility EWMA and the ghost-LRU miss signal.
  void update_boundary();
  std::uint64_t boundary_target_pages() const;
  /// Weight of each new compressibility sample in the boundary's EWMA.
  static constexpr double kCompressibilityEwma = 0.05;
  void note_compressibility(double packed_ratio);
  void note_boundary_miss(Lba lba);
  /// Largest packed delta admitted to the deferred-parity path; drops below
  /// kPageSize when the adaptive boundary is saturated (marginal deltas go
  /// write-through instead of ballooning an incompressible DEZ).
  std::uint32_t delta_admit_limit() const;

  /// Pushes the kdd_dez_* gauges into the global registry.
  void refresh_dez_gauges();

  /// DAZ allocation: free slot, else LRU-clean eviction. kNone if the set is
  /// pinned solid (caller bypasses the cache).
  std::uint32_t alloc_daz_slot(std::uint32_t set, IoPlan* plan);

  /// DEZ allocation: a free page from (approximately) the set with the least
  /// DEZ pages — power-of-k-choices sampling stands in for a global scan.
  std::uint32_t alloc_dez_slot(IoPlan* plan);

  /// Removes the pending delta of a DAZ page (staged or DEZ-resident;
  /// DEZ pages are freed when their valid count reaches zero).
  void invalidate_delta(std::uint32_t daz_idx, IoPlan* plan);

  /// Reclaim scheme 2 (Section III-D): drop the old page entirely.
  void drop_old_page(std::uint32_t daz_idx, IoPlan* plan);

  /// Fold a single page's pending delta into parity synchronously and drop
  /// the page (used when a delta cannot fit a DEZ page).
  void resolve_and_drop(std::uint32_t daz_idx, const DeltaInfo* override_delta,
                        IoPlan* plan);

  void note_old_transition(std::uint32_t daz_idx);
  /// Removes one old-page count from `g`'s dirty bookkeeping; records the
  /// staleness age when the group becomes fully repaired.
  void note_group_repair(GroupId g);
  void maybe_clean(IoPlan* plan);
  void clean_all(IoPlan* plan);
  /// Runs one claim -> prepare -> fold -> commit pipeline pass inline.
  /// Returns false when no claimable work was left (caller stops looping).
  bool destage_batch_once(IoPlan* plan);
  /// Returns true when `g` left the dirty set (cleaned or healed); false
  /// signals no progress, so the caller's loop must stop rather than spin.
  bool clean_group(GroupId g, IoPlan* plan);
  /// Last-resort group repair after a cache-media fault: discards every
  /// pending delta of `g` (the RAID copy is always current — writes reach the
  /// array before their delta is staged) and regenerates parity from the data
  /// members via reconstruct-write.
  void heal_group(GroupId g, IoPlan* plan);
  void add_map_entry(std::uint32_t idx, IoPlan* plan);

  void recover();

  /// Creates the stager on the cache SSD (inactive) from the layout's ring
  /// carve, anchored to the NVRAM segment_seq epoch.
  void setup_segment_staging();

  /// True if the miss on `lba` should allocate a cache page (always, unless
  /// LARC-style selective admission filters it out).
  bool admit(Lba lba);

  /// Bumps media_fallbacks_ and its global-registry mirror
  /// (kdd_media_fallbacks_total); `what` names the failed read/write for the
  /// debug log.
  void note_media_fallback(const char* what);

  /// True when `lba` maps to a failed or not-yet-rebuilt member (prototype
  /// mode with a real array; false otherwise).
  bool page_down(Lba lba);

  /// Degraded-capable conventional write: write_page, and when the array
  /// refuses (lost member of a stale group) fold the group's deltas and
  /// retry once.
  IoStatus degraded_write_page(Lba lba, std::span<const std::uint8_t> data,
                               IoPlan* plan);

  std::unique_ptr<NvramState> owned_nvram_;
  NvramState* nvram_;
  RebuildEngine* rebuild_ = nullptr;  ///< non-owning; see bind_rebuild_engine
  MetadataLog log_;
  GaussianRatioSampler sampler_;
  Rng rng_;
  std::unique_ptr<GhostLru> ghost_;  ///< non-null with selective_admission
  std::unordered_map<GroupId, std::uint32_t> dirty_groups_;  ///< old pages per group
  std::unordered_map<GroupId, std::uint64_t> stale_since_;   ///< request# when stale
  std::unordered_set<GroupId> claimed_groups_;  ///< in-flight destage claims
  bool external_cleaner_ = false;  ///< pool owns destage; maybe_clean no-ops
  LatencyHistogram staleness_ages_;  ///< repair latency in requests
  std::uint64_t op_counter_ = 0;     ///< requests processed
  std::uint64_t old_pages_ = 0;
  std::uint64_t dez_pages_ = 0;
  std::uint64_t delta_fallbacks_ = 0;  ///< oversized-delta fallbacks taken
  std::uint64_t media_fallbacks_ = 0;  ///< cache faults served from RAID
  std::uint64_t groups_healed_ = 0;    ///< heal_group invocations
  std::uint64_t degraded_cache_hits_ = 0;   ///< lost pages served from cache
  std::uint64_t degraded_delta_folds_ = 0;  ///< fold-then-retry recoveries
  bool cleaning_ = false;

  // -- Delta-zone accounting and the adaptive boundary ----------------------
  DezSpace dez_space_;  ///< per-DEZ-page extent accounting
  std::unique_ptr<GhostLru> boundary_ghost_;  ///< adaptive_boundary miss signal
  std::uint64_t dez_limit_pages_ = 0;  ///< adaptive DEZ cap; 0 = uncapped
  double comp_ewma_ = 0.5;             ///< rolling packed/page estimate
  std::uint64_t last_boundary_op_ = 0;
  std::uint64_t boundary_epoch_misses_ = 0;
  std::uint64_t boundary_epoch_ghost_hits_ = 0;
  std::int8_t boundary_pending_dir_ = 0;  ///< last epoch's out-of-band side
  std::uint64_t boundary_moves_ = 0;
};

}  // namespace kdd
