// Crash-point torture: hundreds of seeded power cuts at uniformly random
// media-write indices, each followed by recovery and full integrity
// verification (ISSUE tentpole part 3). The contract being enforced:
//
//   * acked writes are durable across the cut,
//   * the in-flight request is atomic (old or new, never a blend),
//   * the recovered cache keeps serving traffic,
//   * a post-flush parity scrub is clean.

#include "harness/torture.hpp"

#include <gtest/gtest.h>

namespace kdd {
namespace {

void expect_clean(const TortureReport& rep) {
  for (const std::string& v : rep.violations) {
    ADD_FAILURE() << "seed " << rep.seed << " (cut after " << rep.cut_after
                  << "/" << rep.total_media_writes << " media writes): " << v;
  }
}

// The headline guarantee: 200 independent seeds, 200 random crash points,
// zero data-integrity violations.
TEST(Torture, TwoHundredRandomCrashPointsZeroViolations) {
  TortureRunner runner;
  int cuts_fired = 0;
  std::uint64_t torn_writes = 0;
  std::uint64_t rejected_ops = 0;
  std::size_t pages_verified = 0;
  int torn_log_pages = 0;
  int torn_data_pages = 0;
  std::uint64_t write_miss_rcw = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const TortureReport rep = runner.run_seed(seed);
    expect_clean(rep);
    ASSERT_TRUE(rep.ok()) << "seed " << seed;
    cuts_fired += rep.cut_fired ? 1 : 0;
    torn_writes += rep.cache_faults.torn_writes;
    rejected_ops += rep.domain_power_cut_rejects;
    pages_verified += rep.pages_verified;
    torn_log_pages += rep.torn_region == TornRegion::kMetadataLog ? 1 : 0;
    torn_data_pages += rep.torn_region == TornRegion::kCacheData ? 1 : 0;
    write_miss_rcw += rep.write_miss_rcw;
  }
  // Every seed must actually have crashed (the cut index is < the dry-run
  // write count by construction) and torn exactly one cache page write.
  EXPECT_EQ(cuts_fired, 200);
  EXPECT_EQ(torn_writes, 200u);
  // At least some requests must have raced the dead rail, proving the cut
  // lands mid-workload rather than after it.
  EXPECT_GT(rejected_ops, 0u);
  EXPECT_GT(pages_verified, 0u);
  // The torture config's small metadata buffer makes log appends frequent
  // enough that the uniform crash point tears metadata-log pages (the
  // per-entry CRC-8 torn-tail path) as well as cache data pages.
  EXPECT_GT(torn_log_pages, 0);
  EXPECT_GT(torn_data_pages, 0);
  // The cuts must also be able to land inside a write miss that
  // reconstruct-writes from cached row-mates.
  EXPECT_GT(write_miss_rcw, 0u);
}

// Corner case: the very first media write of the run is the torn one — the
// cache dies before it holds anything. Recovery must come up empty-but-sane.
TEST(Torture, CutOnVeryFirstCacheWriteRecovers) {
  TortureRunner runner;
  for (std::uint64_t seed = 501; seed <= 520; ++seed) {
    const TortureReport rep = runner.run_case(seed, 0);
    expect_clean(rep);
    ASSERT_TRUE(rep.ok()) << "seed " << seed;
    EXPECT_TRUE(rep.cut_fired);
    EXPECT_EQ(rep.cache_faults.torn_writes, 1u);
  }
}

// Corner case: a cut index beyond the workload never fires — the cycle
// degenerates to a clean restart, which must also verify perfectly.
TEST(Torture, UnfiredTriggerIsCleanRestart)  {
  TortureRunner runner;
  const TortureReport rep = runner.run_case(42, 1u << 30);
  expect_clean(rep);
  ASSERT_TRUE(rep.ok());
  EXPECT_FALSE(rep.cut_fired);
  EXPECT_EQ(rep.cache_faults.torn_writes, 0u);
  EXPECT_EQ(rep.requests_completed, runner.config().requests);
}

// The dry run (and hence the chosen crash point) must be deterministic, or
// failures would not reproduce from a seed.
TEST(Torture, SeedsAreReproducible) {
  TortureRunner runner;
  const TortureReport a = runner.run_seed(77);
  const TortureReport b = runner.run_seed(77);
  EXPECT_EQ(a.total_media_writes, b.total_media_writes);
  EXPECT_EQ(a.cut_after, b.cut_after);
  EXPECT_EQ(a.requests_completed, b.requests_completed);
  EXPECT_EQ(a.in_flight_lba, b.in_flight_lba);
  EXPECT_EQ(a.ok(), b.ok());
}

// Reports must carry enough forensic detail to localise a failure: the cut
// index is within the dry-run write range and the fault counters show the
// injected tear.
TEST(Torture, ReportExposesFaultTelemetry) {
  TortureRunner runner;
  const TortureReport rep = runner.run_seed(99);
  ASSERT_TRUE(rep.ok());
  EXPECT_GT(rep.total_media_writes, 0u);
  EXPECT_LT(rep.cut_after, rep.total_media_writes);
  EXPECT_TRUE(rep.cut_fired);
  EXPECT_EQ(rep.cache_faults.torn_writes, 1u);
  EXPECT_GT(rep.pages_verified, 0u);
}

// Power cut DURING an online rebuild (ISSUE 6 tentpole): the NVRAM rebuild
// checkpoint survives, the resumed cursor never regresses below the cut
// threshold, completed chunks are not reconstructed twice, and the fully
// rebuilt stack verifies byte-for-byte against the model.
TEST(Torture, PowerCutDuringOnlineRebuildResumesFromCheckpoint) {
  TortureRunner runner;
  for (const std::uint64_t seed : {11ull, 23ull, 37ull, 51ull, 64ull}) {
    const TortureReport rep = runner.run_rebuild_case(seed);
    expect_clean(rep);
    ASSERT_TRUE(rep.ok()) << "seed " << seed;
    EXPECT_TRUE(rep.cut_fired);
    EXPECT_TRUE(rep.checkpoint_survived);
    EXPECT_TRUE(rep.rebuild_completed);
    EXPECT_GE(rep.rebuild_cursor_at_resume, rep.rebuild_cursor_at_cut);
    EXPECT_GT(rep.pages_verified, 0u);
  }
}

// The cut fraction is honoured: a later threshold tears later, and the
// checkpoint at the cut reflects at least that much progress.
TEST(Torture, RebuildCutThresholdControlsCheckpoint) {
  TortureConfig ecfg;
  ecfg.rebuild_cut_fraction = 0.2;
  TortureConfig lcfg;
  lcfg.rebuild_cut_fraction = 0.6;
  TortureRunner early(ecfg);
  TortureRunner late(lcfg);
  const TortureReport a = early.run_rebuild_case(7);
  const TortureReport b = late.run_rebuild_case(7);
  expect_clean(a);
  expect_clean(b);
  ASSERT_TRUE(a.ok() && b.ok());
  const std::uint64_t total = early.config().geo.num_groups();
  EXPECT_GE(a.rebuild_cursor_at_cut, total / 5);
  EXPECT_GE(b.rebuild_cursor_at_cut, (total * 3) / 5);
  EXPECT_GT(b.rebuild_cursor_at_cut, a.rebuild_cursor_at_cut);
}

}  // namespace
}  // namespace kdd
