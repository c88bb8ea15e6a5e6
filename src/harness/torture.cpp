#include "harness/torture.hpp"

#include <memory>
#include <unordered_map>
#include <utility>

#include "cache/nvram.hpp"
#include "common/rng.hpp"
#include "compress/content.hpp"
#include "kdd/kdd_cache.hpp"
#include "raid/raid_array.hpp"
#include "raid/rebuild.hpp"

namespace kdd {

TortureConfig::TortureConfig() {
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 256;
  ssd.logical_pages = 256;
  ssd.pages_per_block = 16;
  policy.ssd_pages = 256;
  policy.ways = 8;
  // A 16-entry NVRAM metadata buffer commits a log page every 16 mapping
  // changes, so the uniform crash point tears metadata-log pages as well as
  // cache data pages. The larger partition keeps the circular log's floor
  // (sized for 240-entry pages) satisfied with 16-entry pages.
  policy.metadata_fraction = 0.1;
  policy.metadata_buffer_entries = 16;
}

/// One seed's worth of stack. Everything but the KddCache survives a power
/// cut (the array's platters, the SSD's flash, the NVRAM); the KddCache is
/// the DRAM state that a real crash destroys, so recovery discards it and
/// constructs a fresh instance with recover = true.
struct TortureRunner::Rig {
  explicit Rig(const TortureConfig& cfg)
      : array(cfg.geo),
        ssd(cfg.ssd),
        nvram(cfg.policy.staging_buffer_bytes, cfg.policy.metadata_buffer_entries),
        kdd(std::make_unique<KddCache>(cfg.policy, &array, &ssd, &nvram)) {}

  FaultInjectingDevice* cache_faults() { return kdd->cache_ssd().faults(); }

  RaidArray array;
  SsdModel ssd;
  NvramState nvram;
  std::unique_ptr<KddCache> kdd;

  /// Ground truth: contents of every page whose write was acknowledged kOk.
  std::unordered_map<Lba, Page> model;

  /// Shared power domain (null in the dry run).
  std::shared_ptr<PowerRail> rail;

  /// The write in flight when the rail dropped: the only request whose
  /// outcome is allowed to be ambiguous (old or new contents, never a blend).
  Lba in_flight_lba = kInvalidLba;
  Page in_flight_new;
};

TortureRunner::TortureRunner(TortureConfig config) : config_(std::move(config)) {}

int TortureRunner::run_workload(Rig& rig, std::uint64_t seed, int requests,
                                TortureReport* report) {
  static const Page kZeroPage = make_page();
  const ContentGenerator gen(seed * 0x2545f4914f6cdd1dull + 7);
  Rng rng(seed);
  for (int i = 0; i < requests; ++i) {
    if (rig.rail && !rig.rail->on()) return i;  // power already dead
    const Lba lba = rng.next_below(config_.working_set);
    if (rng.next_bool(config_.write_prob)) {
      const auto it = rig.model.find(lba);
      const Page data = it == rig.model.end()
                            ? gen.base_page(lba)
                            : gen.mutate(it->second, config_.content_locality, rng);
      const IoStatus st = rig.kdd->write(lba, data, nullptr);
      if (st == IoStatus::kOk) {
        // Acknowledged: durable no matter what happens next (even if the
        // power cut fired inside this very request, after the ack point).
        rig.model[lba] = data;
      } else if (rig.rail && !rig.rail->on()) {
        rig.in_flight_lba = lba;
        rig.in_flight_new = data;
        if (report) report->in_flight_lba = lba;
        return i + 1;
      } else {
        if (report) {
          report->violations.push_back("write failed with power on at lba " +
                                       std::to_string(lba));
        }
        return i + 1;
      }
    } else {
      Page buf = make_page();
      const IoStatus st = rig.kdd->read(lba, buf, nullptr);
      if (st == IoStatus::kOk) {
        const auto it = rig.model.find(lba);
        const Page& expect = it == rig.model.end() ? kZeroPage : it->second;
        if (buf != expect && report) {
          report->violations.push_back("read returned wrong data at lba " +
                                       std::to_string(lba));
        }
      } else if (rig.rail && !rig.rail->on()) {
        // A read in flight at the cut: nothing was at risk, nothing to track.
        return i + 1;
      } else {
        if (report) {
          report->violations.push_back("read failed with power on at lba " +
                                       std::to_string(lba));
        }
        return i + 1;
      }
    }
  }
  return requests;
}

void TortureRunner::verify_against_model(Rig& rig, TortureReport* report) {
  report->pages_verified = 0;
  Page buf = make_page();
  for (auto& [lba, page] : rig.model) {
    const IoStatus st = rig.kdd->read(lba, buf, nullptr);
    if (st != IoStatus::kOk) {
      report->violations.push_back("post-recovery read failed at lba " +
                                   std::to_string(lba));
      continue;
    }
    if (buf == page) {
      ++report->pages_verified;
      continue;
    }
    if (lba == rig.in_flight_lba && !rig.in_flight_new.empty() &&
        buf == rig.in_flight_new) {
      // The interrupted write turned out to be durable after all — atomicity
      // allows that. Fold it into the truth for the rest of the cycle.
      report->in_flight_read_back_new = true;
      page = rig.in_flight_new;
      ++report->pages_verified;
      continue;
    }
    report->violations.push_back(
        lba == rig.in_flight_lba
            ? "in-flight page is a blend of old and new at lba " + std::to_string(lba)
            : "integrity violation: acked data lost at lba " + std::to_string(lba));
  }
}

TortureReport TortureRunner::run_case(std::uint64_t seed, std::uint64_t cut_after) {
  TortureReport rep;
  rep.seed = seed;
  rep.cut_after = cut_after;

  Rig rig(config_);
  rig.rail = std::make_shared<PowerRail>();
  rig.array.attach_rail(rig.rail);
  rig.cache_faults()->attach_rail(rig.rail);
  rig.cache_faults()->arm_power_cut(cut_after);

  rep.requests_completed = run_workload(rig, seed, config_.requests, &rep);
  rep.cut_fired = !rig.rail->on();
  rep.write_miss_rcw = rig.kdd->write_miss_rcw();
  rep.cache_faults = rig.cache_faults()->fault_counters();
  if (rep.cache_faults.torn_writes > 0) {
    rep.torn_region = rig.cache_faults()->last_torn_page() <
                              rig.kdd->cache_ssd().metadata_pages()
                          ? TornRegion::kMetadataLog
                          : TornRegion::kCacheData;
  }
  rep.domain_power_cut_rejects = rep.cache_faults.power_cut_rejects;
  for (std::uint32_t d = 0; d < config_.geo.num_disks; ++d) {
    rep.domain_power_cut_rejects +=
        rig.array.faults(d).fault_counters().power_cut_rejects;
  }

  // Power restore. The DRAM image (KddCache, incl. its fault decorator's
  // checksum map — a real controller's DIF state dies with it too) is lost;
  // flash, platters and NVRAM survive. Recover from the persistent state.
  rig.rail->restore();
  rig.kdd = std::make_unique<KddCache>(config_.policy, &rig.array, &rig.ssd,
                                       &rig.nvram, /*recover=*/true);
  rig.cache_faults()->attach_rail(rig.rail);

  verify_against_model(rig, &rep);

  // The recovered stack must keep working: more traffic, then a full flush
  // and a parity scrub that has to come back clean.
  run_workload(rig, seed * 0x9e3779b97f4a7c15ull + 1,
               config_.post_recovery_requests, &rep);
  rig.kdd->flush(nullptr);
  if (!rig.array.scrub().empty()) {
    rep.violations.push_back("parity scrub found inconsistent groups after flush");
  }
  verify_against_model(rig, &rep);
  return rep;
}

TortureReport TortureRunner::run_rebuild_case(std::uint64_t seed) {
  TortureReport rep;
  rep.seed = seed;

  Rig rig(config_);
  rig.rail = std::make_shared<PowerRail>();
  rig.array.attach_rail(rig.rail);
  rig.cache_faults()->attach_rail(rig.rail);

  // Deliberately slow rebuild (small chunks, frequent throttling) so the
  // power cut reliably lands mid-rebuild.
  OnlineRebuildConfig rcfg;
  rcfg.chunk_groups = 8;
  rcfg.min_chunk_groups = 2;
  rcfg.ops_between_steps = 4;
  rcfg.pressure_window = 64;

  const std::uint64_t total = config_.geo.num_groups();
  const auto threshold = static_cast<std::uint64_t>(
      static_cast<double>(total) * config_.rebuild_cut_fraction);
  {
    RebuildEngine engine(&rig.array, rcfg);
    rig.kdd->bind_rebuild_engine(&engine);

    // Dirty the cache (staged deltas, stale parity), then lose a disk online.
    run_workload(rig, seed, config_.requests, &rep);
    if (!rig.kdd->handle_disk_failure_online(config_.rebuild_fail_disk)) {
      rep.violations.push_back("online rebuild failed to start");
      return rep;
    }

    // Foreground keeps flowing; the engine rebuilds in its slipstream. Tear
    // the rail once the NVRAM checkpoint passes the threshold. The cut lands
    // between requests: the ambiguity under test is the rebuild checkpoint.
    std::uint64_t chunk_seed = seed ^ 0x5bf0363546f1d2c9ull;
    while (rig.rail->on() && engine.rebuild_active()) {
      run_workload(rig, ++chunk_seed, 8, &rep);
      if (rig.nvram.rebuild_active && rig.nvram.rebuild_cursor >= threshold) {
        rig.rail->cut();
      }
    }
    if (!engine.rebuild_active()) {
      rep.violations.push_back("rebuild completed before the cut threshold");
      return rep;
    }
    rep.cut_fired = true;
    rep.rebuild_cursor_at_cut = rig.nvram.rebuild_cursor;
    rig.kdd->bind_rebuild_engine(nullptr);
  }  // the engine (controller DRAM) dies with the power

  // Power restore. The in-core cursor is gone (model that explicitly); the
  // NVRAM checkpoint and the partially rebuilt replacement media survive.
  rig.rail->restore();
  rig.array.rebuild_abandon();
  rig.kdd.reset();  // DRAM cache image is lost too
  rep.checkpoint_survived = rig.nvram.rebuild_active &&
                            rig.nvram.rebuild_disk == config_.rebuild_fail_disk;
  if (!rep.checkpoint_survived) {
    rep.violations.push_back("NVRAM rebuild checkpoint lost across the cut");
    return rep;
  }

  // Resume order matters: re-arm the cursor BEFORE constructing the
  // recovering cache, so recovery-era reads treat the un-rebuilt region as a
  // down member instead of trusting garbage media.
  RebuildEngine engine(&rig.array, rcfg);
  RebuildCheckpoint cp;
  cp.disk = rig.nvram.rebuild_disk;
  cp.cursor = rig.nvram.rebuild_cursor;
  cp.active = true;
  engine.resume(cp);
  rep.rebuild_cursor_at_resume = rig.array.rebuild_cursor();
  if (rep.rebuild_cursor_at_resume < threshold) {
    rep.violations.push_back("resumed cursor lost checkpointed progress");
  }

  rig.kdd = std::make_unique<KddCache>(config_.policy, &rig.array, &rig.ssd,
                                       &rig.nvram, /*recover=*/true);
  rig.cache_faults()->attach_rail(rig.rail);
  rig.kdd->bind_rebuild_engine(&engine);

  // Finish the rebuild. The write count on the replacement disk proves the
  // completed chunks below the checkpoint are NOT reconstructed again: only
  // the remaining groups (plus bounded destage parity traffic) touch it.
  const std::uint64_t writes_before =
      rig.array.faults(config_.rebuild_fail_disk).media_writes();
  int stalls = 0;
  while (engine.rebuild_active() && stalls < 1024) {
    if (engine.pump(nullptr, /*urgent=*/true) == 0) ++stalls;
  }
  rep.rebuild_completed =
      !rig.array.rebuild_active() && rig.array.failed_disk_count() == 0;
  if (!rep.rebuild_completed) {
    rep.violations.push_back("resumed rebuild did not complete");
  }
  rep.new_disk_writes_after_resume =
      rig.array.faults(config_.rebuild_fail_disk).media_writes() - writes_before;
  const std::uint64_t remaining = total - rep.rebuild_cursor_at_resume;
  if (rep.new_disk_writes_after_resume > remaining + total / 8) {
    rep.violations.push_back("resume re-reconstructed already-completed chunks");
  }
  if (rig.array.rebuild_stale_folds() != 0) {
    rep.violations.push_back("rebuild reconstructed groups from stale parity");
  }

  verify_against_model(rig, &rep);

  // The recovered, fully rebuilt stack must keep working.
  run_workload(rig, seed * 0x9e3779b97f4a7c15ull + 1,
               config_.post_recovery_requests, &rep);
  rig.kdd->flush(nullptr);
  if (!rig.array.scrub().empty()) {
    rep.violations.push_back("parity scrub found inconsistent groups after flush");
  }
  verify_against_model(rig, &rep);
  return rep;
}

TortureReport TortureRunner::run_seed(std::uint64_t seed) {
  // Dry run: same seeded workload, no faults, to learn the media-write count
  // W of the cache device. It doubles as a sanity baseline — a violation here
  // means the workload itself is broken, not the crash handling.
  std::uint64_t total_writes = 0;
  {
    Rig dry(config_);
    TortureReport baseline;
    baseline.seed = seed;
    run_workload(dry, seed, config_.requests, &baseline);
    total_writes = dry.cache_faults()->media_writes();
    if (!baseline.ok() || total_writes == 0) {
      baseline.total_media_writes = total_writes;
      if (total_writes == 0) {
        baseline.violations.push_back("dry run produced no cache media writes");
      }
      return baseline;
    }
  }
  // Uniform crash point over every media write of the run: DAZ admissions,
  // delta commits and metadata appends are all hit in proportion to their
  // frequency.
  Rng cut_rng(seed ^ 0xc3a5c85c97cb3127ull);
  TortureReport rep = run_case(seed, cut_rng.next_below(total_writes));
  rep.total_media_writes = total_writes;
  return rep;
}

}  // namespace kdd
