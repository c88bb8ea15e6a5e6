// Crash-point torture harness (tentpole, part 3): drives a seeded KDD
// workload against the prototype stack, tears power at a *uniformly random
// media-write index* on the cache SSD (every write on the shared PowerRail
// domain — all RAID disks included — fails from that instant), then restores
// power, recovers, and verifies full data integrity against a ground-truth
// model.
//
// The crash point is chosen by a dry run: the same seeded workload is first
// executed without faults to count the cache device's media writes W, then
// the real run arms the power-cut trigger at cut ~ U[0, W). This guarantees
// coverage of every write class — DAZ admissions, DEZ delta commits, metadata
// log appends, segment seals — in proportion to how often they occur, with no
// hand-picked crash points.
//
// Integrity contract checked per seed (violations are collected, not
// asserted, so callers can aggregate across hundreds of seeds):
//   * every write acknowledged kOk before the cut is durable: after recovery
//     the page reads back with exactly the acknowledged contents;
//   * the single in-flight request at the instant of the cut is atomic: the
//     page reads back as either its old or its new contents, never a blend;
//   * the recovered cache keeps serving reads and writes correctly;
//   * after flush, the RAID parity scrub reports zero inconsistent groups.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "blockdev/fault_device.hpp"
#include "blockdev/ssd_model.hpp"
#include "cache/policy.hpp"
#include "common/units.hpp"
#include "raid/layout.hpp"

namespace kdd {

struct TortureConfig {
  /// Requests in the pre-crash workload (the dry run uses the same count).
  int requests = 500;
  /// Requests replayed after recovery to prove the stack still works.
  int post_recovery_requests = 200;
  Lba working_set = 300;
  double write_prob = 0.55;
  double content_locality = 0.25;

  RaidGeometry geo;      ///< defaulted to a small RAID-5 in the constructor
  SsdConfig ssd;         ///< small SSD; logical_pages must equal policy.ssd_pages
  PolicyConfig policy;

  /// run_rebuild_case: which disk fails, and how far (as a fraction of the
  /// array's groups) the online rebuild must have progressed before power is
  /// torn. The cut lands between requests — the ambiguity under test is the
  /// rebuild checkpoint, not write atomicity (run_case covers that).
  std::uint32_t rebuild_fail_disk = 1;
  double rebuild_cut_fraction = 0.3;

  TortureConfig();
};

struct TortureReport {
  std::uint64_t seed = 0;
  std::uint64_t total_media_writes = 0;  ///< cache-SSD writes in the dry run
  std::uint64_t cut_after = 0;           ///< media writes let through before the tear
  bool cut_fired = false;
  int requests_completed = 0;  ///< pre-crash requests finished (incl. in-flight)

  /// LBA of the request in flight when power died (kInvalidLba if the cut
  /// landed between requests, e.g. the op that tore still acked OK).
  Lba in_flight_lba = kInvalidLba;
  bool in_flight_read_back_new = false;  ///< it recovered as the new version

  std::size_t pages_verified = 0;
  FaultCounters cache_faults;  ///< cache-SSD decorator counters at cut time
  /// Ops rejected while the rail was down, summed over the whole power domain
  /// (cache SSD + every RAID disk): proves the cut landed mid-workload.
  std::uint64_t domain_power_cut_rejects = 0;

  // ---- segment staging (the cut can land mid-segment-flush) ---------------
  std::uint64_t segments_recovered = 0;  ///< in-flight segment proved complete
  std::uint64_t segments_discarded = 0;  ///< unsealed segment invalidated
  std::uint64_t segment_pages_discarded = 0;  ///< exactly its header's page list

  // ---- run_rebuild_case only (power cut during an online rebuild) ---------
  std::uint64_t rebuild_cursor_at_cut = 0;     ///< NVRAM checkpoint at the tear
  std::uint64_t rebuild_cursor_at_resume = 0;  ///< cursor the engine resumed at
  bool checkpoint_survived = false;  ///< NVRAM still said "rebuilding disk d"
  bool rebuild_completed = false;
  /// Writes the replacement disk absorbed while finishing the resumed
  /// rebuild — bounded by the groups *beyond* the checkpoint (plus destage
  /// parity traffic), proving completed chunks were not re-reconstructed.
  std::uint64_t new_disk_writes_after_resume = 0;

  /// Empty == the seed passed. Each entry is a human-readable description of
  /// one integrity violation.
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }
};

/// Runs independent crash-recover-verify cycles; each seed builds a fresh
/// stack (RaidArray + SsdModel + NVRAM + KddCache), so seeds are isolated.
class TortureRunner {
 public:
  explicit TortureRunner(TortureConfig config = {});

  /// Full cycle: dry run -> pick uniform crash point -> real run with power
  /// cut -> recovery -> integrity verification -> post-recovery workload ->
  /// flush + parity scrub.
  TortureReport run_seed(std::uint64_t seed);

  /// As run_seed but with a caller-chosen crash point (media-write index on
  /// the cache SSD). Used to pin corner cases: cut_after = 0 tears the very
  /// first cache write; a huge value never fires and degenerates to a clean
  /// power-down-after-idle cycle.
  TortureReport run_case(std::uint64_t seed, std::uint64_t cut_after);

  /// Power-cut-during-rebuild cycle: seeded workload -> online disk failure
  /// (degraded mode, incremental rebuild interleaved with foreground I/O) ->
  /// power torn once the NVRAM rebuild checkpoint passes
  /// rebuild_cut_fraction -> restore -> resume from the checkpoint (without
  /// re-reconstructing completed chunks) -> recover the cache -> finish the
  /// rebuild -> verify integrity, then flush + clean scrub.
  TortureReport run_rebuild_case(std::uint64_t seed);

  const TortureConfig& config() const { return config_; }

 private:
  struct Rig;

  /// Executes up to config_.requests seeded requests against rig.kdd,
  /// maintaining the truth model. Stops early once the rail is down. Returns
  /// the number of requests completed or in flight.
  int run_workload(Rig& rig, std::uint64_t seed, int requests, TortureReport* report);

  void verify_against_model(Rig& rig, TortureReport* report);

  TortureConfig config_;
};

}  // namespace kdd
