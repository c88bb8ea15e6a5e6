// Tests for the continuous health engine (src/obs/health.hpp), the black-box
// flight recorder (src/obs/flight.hpp) and the live serving surface
// (src/obs/serve.hpp): rolling-window bucket rotation across boundaries,
// burn-rate rule fire/resolve edges for every rule, the byte-deterministic
// reliability drill the issue's acceptance criteria name, the double-fault
// auto-dump event chain, and the scrape handler/server round trip.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "blockdev/fault_device.hpp"
#include "blockdev/mem_device.hpp"
#include "blockdev/retry.hpp"
#include "common/bytes.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/serve.hpp"
#include "raid/raid_array.hpp"
#include "raid/rebuild.hpp"

namespace kdd {
namespace {

using obs::AlertRule;
using obs::FlightKind;
using obs::FlightRecorder;
using obs::HealthConfig;
using obs::HealthEngine;
using obs::RollingCounter;
using obs::RollingHistogram;
using obs::RollingMax;

constexpr std::uint64_t kSec = 1'000'000;  // sim microseconds

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// Rolling-window primitives
// ---------------------------------------------------------------------------

TEST(RollingCounter, BucketBoundaryNeitherDoubleCountsNorGaps) {
  RollingCounter c(/*bucket_us=*/1000, /*slots=*/8);
  c.add(999, 1);   // epoch 0, last microsecond
  c.add(1000, 1);  // epoch 1, first microsecond
  // A 1-bucket window at t=1000 sees only epoch 1.
  EXPECT_EQ(c.sum(1000, 1000), 1u);
  // A 2-bucket window sees both, exactly once each.
  EXPECT_EQ(c.sum(1000, 2000), 2u);
  // Advancing the query time out of range drops epoch 0, then epoch 1.
  EXPECT_EQ(c.sum(2999, 2000), 1u);
  EXPECT_EQ(c.sum(3999, 2000), 0u);
}

TEST(RollingCounter, IdleGapLazilyResetsReusedSlots) {
  RollingCounter c(1000, /*slots=*/4);
  c.add(500, 5);  // epoch 0 -> slot 0
  // Jump far past the ring (epoch 8 also maps to slot 0): the stale value
  // must not leak into the new epoch.
  c.add(8000, 7);
  EXPECT_EQ(c.sum(8000, 4000), 7u);
  // And the old epoch is gone even for the widest query the ring answers.
  EXPECT_EQ(c.sum(8000, 4 * 1000), 7u);
}

TEST(RollingCounter, WindowSumIsMonotoneInWindowSize) {
  RollingCounter c(1000, 16);
  for (std::uint64_t t = 0; t < 10'000; t += 250) c.add(t, 1);
  std::uint64_t prev = 0;
  for (std::uint64_t w = 1000; w <= 16'000; w += 1000) {
    const std::uint64_t s = c.sum(9999, w);
    EXPECT_GE(s, prev) << "window " << w;
    prev = s;
  }
  EXPECT_EQ(c.sum(9999, 16'000), 40u);  // everything recorded
}

TEST(RollingMax, WindowMaxTracksAndExpires) {
  RollingMax m(1000, 8);
  m.record(100, 3);
  m.record(1100, 9);
  m.record(2100, 4);
  EXPECT_EQ(m.max(2100, 1000), 4u);
  EXPECT_EQ(m.max(2100, 3000), 9u);
  // Epoch 1 (the 9) leaves a 2-bucket window at t=3100.
  EXPECT_EQ(m.max(3100, 2000), 4u);
  EXPECT_EQ(m.max(9999, 1000), 0u);
}

TEST(RollingHistogram, RotationAcrossBoundariesKeepsWindowCounts) {
  RollingHistogram h(1000, /*slots=*/4);
  // One value per epoch, 6 epochs, through a 4-slot ring (wraps twice).
  for (std::uint64_t e = 0; e < 6; ++e) h.record(e * 1000 + 500, 100 * (e + 1));
  // At t in epoch 5, a 3-bucket window holds epochs 3..5.
  EXPECT_EQ(h.count(5500, 3000), 3u);
  LatencyHistogram merged;
  h.merge_window(5500, 3000, &merged);
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_EQ(merged.max_us(), 600u);
  // The full ring (4 slots) can hold at most epochs 2..5: the wrapped-away
  // epochs 0 and 1 must not resurface in any window.
  h.merge_window(5500, 60'000, &merged);
  EXPECT_EQ(merged.count(), 4u);
  EXPECT_EQ(merged.max_us(), 600u);
  // Epoch 2's 300 is the smallest surviving value (100/200 wrapped away);
  // allow the histogram's bucket-representative error.
  ASSERT_GE(merged.percentile_us(0.01), 250u);
}

TEST(RollingHistogram, MergeIsMonotoneInWindowSize) {
  RollingHistogram h(1000, 16);
  for (std::uint64_t t = 0; t < 12'000; t += 400) h.record(t, t + 1);
  std::uint64_t prev = 0;
  LatencyHistogram merged;
  for (std::uint64_t w = 1000; w <= 16'000; w += 1000) {
    h.merge_window(11'999, w, &merged);
    EXPECT_GE(merged.count(), prev) << "window " << w;
    prev = merged.count();
  }
}

// ---------------------------------------------------------------------------
// HealthEngine rules
// ---------------------------------------------------------------------------

HealthConfig test_config() {
  HealthConfig cfg;  // defaults: 1 s buckets, 5 s fast, 60 s slow
  return cfg;
}

const obs::AlertStatus& status_of(const std::vector<obs::AlertStatus>& all,
                                  AlertRule rule) {
  return all[static_cast<std::size_t>(rule)];
}

TEST(HealthEngine, LatencyBurnFiresOnRegressionAndResolvesOnRecovery) {
  HealthEngine eng(test_config());
  // 2 s of healthy traffic, 10 requests/s at 2 ms.
  std::uint64_t t = 0;
  for (int i = 0; i < 20; ++i) {
    t += 100'000;
    eng.observe_request(t, 2'000);
  }
  EXPECT_FALSE(status_of(eng.alerts(), AlertRule::kLatencyBurn).active);

  // Latency regression: 3 s of 50 ms requests (SLO threshold is 20 ms).
  for (int i = 0; i < 30; ++i) {
    t += 100'000;
    eng.observe_request(t, 50'000);
  }
  EXPECT_TRUE(status_of(eng.alerts(), AlertRule::kLatencyBurn).active);
  EXPECT_TRUE(eng.any_active());

  // Recovery: enough healthy traffic to flush the fast window.
  for (int i = 0; i < 80; ++i) {
    t += 100'000;
    eng.observe_request(t, 2'000);
  }
  const obs::AlertStatus st = status_of(eng.alerts(), AlertRule::kLatencyBurn);
  EXPECT_FALSE(st.active);
  EXPECT_EQ(st.fired_count, 1u);
  // The event log holds the fire edge then the resolve edge.
  std::vector<obs::AlertEvent> edges;
  for (const obs::AlertEvent& ev : eng.events()) {
    if (ev.rule == AlertRule::kLatencyBurn) edges.push_back(ev);
  }
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_TRUE(edges[0].fired);
  EXPECT_FALSE(edges[1].fired);
  EXPECT_LT(edges[0].t_us, edges[1].t_us);
}

TEST(HealthEngine, BatchObserveMatchesSequential) {
  // observe_requests() is the batched session feed; it must be
  // indistinguishable from the same stream fed one call at a time — same
  // window stats, same eval points, same alert edges. Replay a stream that
  // crosses a fire and a resolve edge through both entry points, in uneven
  // batch sizes that straddle the edges.
  HealthEngine seq(test_config());
  HealthEngine bat(test_config());
  std::vector<std::uint64_t> ts;
  std::vector<std::uint64_t> lat;
  std::uint64_t t = 0;
  for (int i = 0; i < 20; ++i) { t += 100'000; ts.push_back(t); lat.push_back(2'000); }
  for (int i = 0; i < 30; ++i) { t += 100'000; ts.push_back(t); lat.push_back(50'000); }
  for (int i = 0; i < 80; ++i) { t += 100'000; ts.push_back(t); lat.push_back(2'000); }

  for (std::size_t i = 0; i < ts.size(); ++i) seq.observe_request(ts[i], lat[i]);
  const std::size_t batch_sizes[] = {1, 7, 32, 3, 19, 45, 64};
  std::size_t off = 0;
  for (std::size_t b = 0; off < ts.size(); b = (b + 1) % std::size(batch_sizes)) {
    const std::size_t n = std::min(batch_sizes[b], ts.size() - off);
    bat.observe_requests(ts.data() + off, lat.data() + off, n);
    off += n;
  }

  for (const bool fast : {true, false}) {
    const auto ws = seq.window_stats(fast);
    const auto wb = bat.window_stats(fast);
    EXPECT_EQ(ws.requests, wb.requests);
    EXPECT_EQ(ws.bad_requests, wb.bad_requests);
    EXPECT_EQ(ws.burn_rate, wb.burn_rate);
    EXPECT_EQ(ws.p50_us, wb.p50_us);
    EXPECT_EQ(ws.p99_us, wb.p99_us);
    EXPECT_EQ(ws.p999_us, wb.p999_us);
  }
  const auto ev_s = seq.events();
  const auto ev_b = bat.events();
  ASSERT_EQ(ev_s.size(), ev_b.size());
  for (std::size_t i = 0; i < ev_s.size(); ++i) {
    EXPECT_EQ(ev_s[i].t_us, ev_b[i].t_us);
    EXPECT_EQ(ev_s[i].rule, ev_b[i].rule);
    EXPECT_EQ(ev_s[i].fired, ev_b[i].fired);
    EXPECT_EQ(ev_s[i].value, ev_b[i].value);
  }
  const auto al_s = seq.alerts();
  const auto al_b = bat.alerts();
  ASSERT_EQ(al_s.size(), al_b.size());
  for (std::size_t i = 0; i < al_s.size(); ++i) {
    EXPECT_EQ(al_s[i].active, al_b[i].active);
    EXPECT_EQ(al_s[i].fired_count, al_b[i].fired_count);
    EXPECT_EQ(al_s[i].since_us, al_b[i].since_us);
  }
}

TEST(HealthEngine, LatencyBurnNeedsBothWindowsBurning) {
  // A short blip that burns the fast window but not the slow one must not
  // fire (the multi-window guard). 55 s of good traffic dilutes the slow
  // window well below the fire bound before a 1 s blip of bad requests.
  HealthEngine eng(test_config());
  std::uint64_t t = 0;
  for (int i = 0; i < 550; ++i) {
    t += 100'000;
    eng.observe_request(t, 2'000);
  }
  for (int i = 0; i < 10; ++i) {
    t += 100'000;
    eng.observe_request(t, 50'000);
  }
  // Fast window burn: 10 bad / 50 req = 0.2/0.01 = 20x. Slow window:
  // 10 / 560 ~= 1.8x < 2x -> must stay quiet.
  EXPECT_FALSE(status_of(eng.alerts(), AlertRule::kLatencyBurn).active);
}

TEST(HealthEngine, HitRatioCollapseFiresAndRecovers) {
  HealthEngine eng(test_config());
  eng.tick(1 * kSec);
  for (int i = 0; i < 20; ++i) eng.note_cache_miss();
  eng.tick(2 * kSec);
  EXPECT_TRUE(status_of(eng.alerts(), AlertRule::kHitRatioCollapse).active);

  // 6 s later the misses have left the fast window; fresh hits resolve it.
  eng.tick(8 * kSec);
  for (int i = 0; i < 20; ++i) eng.note_cache_hit();
  eng.tick(9 * kSec);
  EXPECT_FALSE(status_of(eng.alerts(), AlertRule::kHitRatioCollapse).active);
}

TEST(HealthEngine, WearImbalanceFiresOnSkewAndResolvesWithHysteresis) {
  HealthEngine eng(test_config());
  eng.observe_region_wear(0, 10.0);
  eng.observe_region_wear(1, 10.0);
  eng.observe_region_wear(2, 10.0);
  eng.observe_region_wear(3, 100.0);  // skew = 100 / 32.5 ~= 3.1
  eng.tick(1 * kSec);
  EXPECT_TRUE(status_of(eng.alerts(), AlertRule::kWearImbalance).active);
  EXPECT_NEAR(eng.wear_skew(), 100.0 / 32.5, 1e-9);

  // Wear converges: skew 1.18 is below the 1.25 resolve bound (hysteresis
  // means 1.4 — between resolve and fire — would have kept it active).
  for (std::size_t r = 0; r < 3; ++r) eng.observe_region_wear(r, 100.0);
  eng.observe_region_wear(3, 118.0);
  eng.tick(2 * kSec);
  EXPECT_FALSE(status_of(eng.alerts(), AlertRule::kWearImbalance).active);
}

TEST(HealthEngine, WearImbalanceNeedsEnoughTotalWear) {
  HealthEngine eng(test_config());
  eng.observe_region_wear(0, 1.0);
  eng.observe_region_wear(1, 10.0);  // huge skew, tiny absolute wear
  eng.tick(1 * kSec);
  EXPECT_FALSE(status_of(eng.alerts(), AlertRule::kWearImbalance).active);
}

TEST(HealthEngine, ArrayDegradedTracksStateAndExportsGauges) {
  obs::MetricsRegistry::global().reset();
  HealthEngine eng(test_config());
  eng.note_array_state(1);
  eng.tick(1 * kSec);
  EXPECT_TRUE(status_of(eng.alerts(), AlertRule::kArrayDegraded).active);

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  bool found_active = false;
  bool found_fired = false;
  for (const auto& g : snap.gauges) {
    if (g.name == "kdd_alerts_active{rule=\"array_degraded\"}") {
      found_active = true;
      EXPECT_EQ(g.value, 1);
    }
  }
  for (const auto& c : snap.counters) {
    if (c.name == "kdd_alerts_fired_total{rule=\"array_degraded\"}") {
      found_fired = true;
      EXPECT_EQ(c.value, 1u);
    }
  }
  EXPECT_TRUE(found_active);
  EXPECT_TRUE(found_fired);

  eng.note_array_state(0);
  eng.tick(2 * kSec);
  EXPECT_FALSE(status_of(eng.alerts(), AlertRule::kArrayDegraded).active);
}

TEST(HealthEngine, WindowStatsReportSlidingPercentiles) {
  HealthEngine eng(test_config());
  std::uint64_t t = 0;
  // 100 old requests at 1 ms, then 100 recent at 10 ms; the fast window
  // only sees the recent ones.
  for (int i = 0; i < 100; ++i) {
    t += 100'000;
    eng.observe_request(t, 1'000);
  }
  for (int i = 0; i < 100; ++i) {
    t += 40'000;  // 4 ms spacing: 100 requests in 4 s < fast window
    eng.observe_request(t, 10'000);
  }
  const HealthEngine::WindowStats fast = eng.window_stats(/*fast=*/true);
  const HealthEngine::WindowStats slow = eng.window_stats(/*fast=*/false);
  EXPECT_GE(fast.p50_us, 10'000u * 63 / 64);
  EXPECT_LE(fast.p50_us, 10'000u * 66 / 64);
  EXPECT_GT(slow.requests, fast.requests);
  // Slow window p50 sits between the two modes.
  EXPECT_GE(slow.p50_us, 1'000u);
  EXPECT_LE(slow.p50_us, 10'500u);
}

TEST(HealthEngine, HealthJsonCarriesSchemaWindowsAndRules) {
  HealthEngine eng(test_config());
  eng.observe_request(kSec, 2'000);
  eng.tick(2 * kSec);
  const std::string json = eng.health_json();
  EXPECT_NE(json.find("\"schema\":\"kdd-health-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"fast\""), std::string::npos);
  EXPECT_NE(json.find("\"slow\""), std::string::npos);
  EXPECT_NE(json.find("\"attainment\""), std::string::npos);
  for (int i = 0; i < obs::kNumAlertRules; ++i) {
    EXPECT_NE(json.find(obs::alert_rule_name(static_cast<AlertRule>(i))),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// The issue's reliability drill: latency regression while degraded
// mid-rebuild plus a skewed-wear workload; burn-rate and wear-imbalance
// alerts fire, then resolve after recovery. Byte-deterministic on the sim
// clock across reruns.
// ---------------------------------------------------------------------------

struct DrillResult {
  std::string health_json;
  std::vector<obs::AlertEvent> events;
  bool burn_fired = false, burn_resolved = false;
  bool wear_fired = false, wear_resolved = false;
  bool degraded_fired = false, degraded_resolved = false;
  bool any_active_at_end = true;
};

DrillResult run_drill() {
  HealthEngine eng(test_config());
  std::uint64_t t = 0;
  const auto requests = [&](int n, std::uint64_t spacing_us,
                            std::uint64_t latency_us) {
    for (int i = 0; i < n; ++i) {
      t += spacing_us;
      eng.observe_request(t, latency_us);
    }
  };

  // Phase 1 — healthy baseline: 10 s of 2 ms requests, balanced wear.
  for (std::size_t r = 0; r < 4; ++r) eng.observe_region_wear(r, 50.0);
  requests(100, 100'000, 2'000);

  // Phase 2 — a disk fails mid-run; the array degrades and the rebuild
  // drives foreground latency over the SLO threshold while GC burns one
  // region of the cache SSD.
  eng.note_array_state(1);  // degraded
  eng.observe_region_wear(3, 400.0);
  requests(50, 100'000, 60'000);
  eng.note_array_state(2);  // rebuilding
  requests(50, 100'000, 45'000);

  // Phase 3 — recovery: rebuild completes, latency returns to baseline,
  // wear-leveling evens the regions back out.
  eng.note_array_state(0);
  for (std::size_t r = 0; r < 3; ++r) eng.observe_region_wear(r, 380.0);
  eng.observe_region_wear(3, 420.0);
  requests(120, 100'000, 2'000);

  DrillResult out;
  out.health_json = eng.health_json();
  out.events = eng.events();
  for (const obs::AlertEvent& ev : out.events) {
    if (ev.rule == AlertRule::kLatencyBurn) {
      (ev.fired ? out.burn_fired : out.burn_resolved) = true;
    }
    if (ev.rule == AlertRule::kWearImbalance) {
      (ev.fired ? out.wear_fired : out.wear_resolved) = true;
    }
    if (ev.rule == AlertRule::kArrayDegraded) {
      (ev.fired ? out.degraded_fired : out.degraded_resolved) = true;
    }
  }
  out.any_active_at_end = eng.any_active();
  return out;
}

TEST(HealthDrill, BurnAndWearAlertsFireAndResolveDeterministically) {
  const DrillResult a = run_drill();
  EXPECT_TRUE(a.burn_fired);
  EXPECT_TRUE(a.burn_resolved);
  EXPECT_TRUE(a.wear_fired);
  EXPECT_TRUE(a.wear_resolved);
  EXPECT_TRUE(a.degraded_fired);
  EXPECT_TRUE(a.degraded_resolved);
  EXPECT_FALSE(a.any_active_at_end);

  // Byte-deterministic on the sim clock: an identical rerun produces the
  // identical health document and the identical edge sequence.
  const DrillResult b = run_drill();
  EXPECT_EQ(a.health_json, b.health_json);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].t_us, b.events[i].t_us) << "event " << i;
    EXPECT_EQ(a.events[i].rule, b.events[i].rule) << "event " << i;
    EXPECT_EQ(a.events[i].fired, b.events[i].fired) << "event " << i;
  }
}

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

struct FlightGuard {
  FlightGuard() {
    FlightRecorder::global().clear();
    FlightRecorder::global().set_capacity(4096);
    FlightRecorder::set_enabled(true);
  }
  ~FlightGuard() {
    FlightRecorder::set_enabled(false);
    FlightRecorder::global().set_auto_dump_path("");
    FlightRecorder::global().clear();
  }
};

TEST(FlightRecorder, RingKeepsNewestAndCountsDrops) {
  FlightGuard guard;
  FlightRecorder& fr = FlightRecorder::global();
  fr.set_capacity(4);
  for (int i = 0; i < 6; ++i) {
    fr.set_now_us(static_cast<std::uint64_t>(100 * (i + 1)));
    fr.note(FlightKind::kFault, "f", i);
  }
  const std::vector<obs::FlightEvent> evs = fr.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(fr.dropped(), 2u);
  // Chronological: oldest surviving first, seq strictly increasing.
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_GT(evs[i].seq, evs[i - 1].seq);
    EXPECT_GE(evs[i].t_us, evs[i - 1].t_us);
  }
  EXPECT_EQ(evs.back().a, 5);
}

TEST(FlightRecorder, ClockClampIsMonotone) {
  FlightGuard guard;
  FlightRecorder& fr = FlightRecorder::global();
  // The singleton's clock persists across tests, so work relative to it.
  const std::uint64_t base = fr.now_us() + 500;
  fr.set_now_us(base);
  fr.set_now_us(base - 300);  // must not go backwards
  EXPECT_EQ(fr.now_us(), base);
  fr.set_now_us(base + 200);
  EXPECT_EQ(fr.now_us(), base + 200);
}

TEST(FlightRecorder, DisabledNoteIsANoOp) {
  FlightGuard guard;
  FlightRecorder::set_enabled(false);
  obs::flight_note(FlightKind::kFault, "ignored");
  EXPECT_TRUE(FlightRecorder::global().events().empty());
}

TEST(FlightRecorder, DumpWritesSchemaAndDumpMark) {
  FlightGuard guard;
  FlightRecorder& fr = FlightRecorder::global();
  fr.note(FlightKind::kPowerCut, "torn_write", 42);
  const std::string path = testing::TempDir() + "kdd_flight_dump.json";
  ASSERT_TRUE(fr.dump(path, "unit_test"));
  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"schema\":\"kdd-flight-v1\""), std::string::npos);
  EXPECT_NE(body.find("\"reason\":\"unit_test\""), std::string::npos);
  EXPECT_NE(body.find("\"kind\":\"power_cut\""), std::string::npos);
  EXPECT_NE(body.find("\"kind\":\"dump\""), std::string::npos);
  std::remove(path.c_str());
}

// The issue's black-box acceptance: an injected double fault auto-dumps a
// flight.json whose events reconstruct the chain fault -> retry exhaustion
// -> alert -> state transition -> double fault.
TEST(FlightRecorder, DoubleFaultAutoDumpReconstructsEventChain) {
  FlightGuard guard;
  FlightRecorder& fr = FlightRecorder::global();
  const std::string path = testing::TempDir() + "kdd_flight_double_fault.json";
  std::remove(path.c_str());
  fr.set_auto_dump_path(path);

  HealthEngine eng(test_config());
  HealthEngine::install(&eng);

  // 1. A latent sector error surfaces on a read (kFault).
  MemBlockDevice mem(64);
  FaultInjectingDevice fdev(&mem);
  fdev.inject_media_error(3);
  Page page = make_page();
  EXPECT_EQ(fdev.read(3, page), IoStatus::kMediaError);

  // 2. A retry budget runs dry against a persistent transient fault
  // (kRetryExhausted; this is also an auto-dump trigger).
  const RetryResult rr = with_retry([] { return IoStatus::kTransient; });
  EXPECT_EQ(rr.status, IoStatus::kFailed);

  // 3. The health engine raises the degraded-array alert (kAlertFired).
  eng.note_array_state(1);
  eng.tick(1 * kSec);

  // 4. The rebuild engine publishes the array-state transition
  // (kStateTransition) for a two-disk-failed RAID-5...
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 64;
  RaidArray array(geo);
  array.fail_disk(0);
  array.fail_disk(1);
  RebuildEngine rebuild(&array);

  // 5. ...and a read that needs both lost members is the double fault that
  // triggers the final auto dump. Sweep one full stripe so the scan hits a
  // chunk on a failed disk regardless of the layout's rotation.
  Page out = make_page();
  bool double_faulted = false;
  const std::uint64_t stripe_pages =
      static_cast<std::uint64_t>(geo.chunk_pages) * geo.data_disks();
  for (Lba lba = 0; lba < stripe_pages; ++lba) {
    if (array.read_page(lba, out) == IoStatus::kFailed) {
      double_faulted = true;
      break;
    }
  }
  EXPECT_TRUE(double_faulted);
  HealthEngine::install(nullptr);

  // The chain appears in order in the recorder...
  const std::vector<obs::FlightEvent> evs = fr.events();
  const FlightKind chain[] = {FlightKind::kFault, FlightKind::kRetryExhausted,
                              FlightKind::kAlertFired,
                              FlightKind::kStateTransition,
                              FlightKind::kDoubleFault};
  std::size_t want = 0;
  for (const obs::FlightEvent& ev : evs) {
    if (want < std::size(chain) && ev.kind == chain[want]) ++want;
  }
  EXPECT_EQ(want, std::size(chain))
      << "matched only " << want << " of the expected event chain";

  // ...and the auto dump landed on disk with the schema tag and the chain.
  const std::string body = slurp(path);
  ASSERT_FALSE(body.empty()) << "double fault did not auto-dump " << path;
  EXPECT_NE(body.find("\"schema\":\"kdd-flight-v1\""), std::string::npos);
  EXPECT_NE(body.find("\"kind\":\"double_fault\""), std::string::npos);
  EXPECT_NE(body.find("\"kind\":\"retry_exhausted\""), std::string::npos);
  EXPECT_NE(body.find("\"kind\":\"alert_fired\""), std::string::npos);
  EXPECT_NE(body.find("\"kind\":\"state_transition\""), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Serving surface
// ---------------------------------------------------------------------------

TEST(HealthHandler, RoutesMetricsHealthFlightAnd404) {
  obs::MetricsRegistry::global().reset();
  obs::Counter probe(&obs::MetricsRegistry::global(), "kdd_probe_total");
  probe.inc(3);
  HealthEngine eng(test_config());
  eng.observe_request(kSec, 2'000);

  obs::HealthHandler handler(&eng);
  const obs::ScrapeResponse metrics = handler.handle("/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("kdd_probe_total 3"), std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE kdd_probe_total counter"),
            std::string::npos);

  const obs::ScrapeResponse health = handler.handle("/health");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("kdd-health-v1"), std::string::npos);

  const obs::ScrapeResponse flight = handler.handle("/flight");
  EXPECT_EQ(flight.status, 200);
  EXPECT_NE(flight.body.find("kdd-flight-v1"), std::string::npos);

  // Query strings are ignored; unknown paths 404.
  EXPECT_EQ(handler.handle("/health?verbose=1").status, 200);
  EXPECT_EQ(handler.handle("/nope").status, 404);
}

TEST(HealthHandler, NullEngineStillServes) {
  const obs::HealthHandler handler(nullptr);
  const obs::ScrapeResponse health = handler.handle("/health");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"engine_installed\":false"), std::string::npos);
}

TEST(ScrapeServer, ServesOverLoopbackWithEphemeralPort) {
  HealthEngine eng(test_config());
  eng.observe_request(kSec, 2'000);
  obs::HealthHandler handler(&eng);
  obs::ScrapeServer server(handler);
  if (!server.start(0)) {
    GTEST_SKIP() << "cannot bind loopback in this environment";
  }
  ASSERT_NE(server.port(), 0);

  std::string body;
  int status = 0;
  ASSERT_TRUE(obs::http_get(server.port(), "/health", &body, &status));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, handler.handle("/health").body);

  ASSERT_TRUE(obs::http_get(server.port(), "/bogus", &body, &status));
  EXPECT_EQ(status, 404);
  EXPECT_GE(server.requests_served(), 2u);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(ScrapeServer, CountsEachRequestBeforeTheClientSeesItsResponse) {
  obs::HealthHandler handler(nullptr);
  obs::ScrapeServer server(handler);
  if (!server.start(0)) {
    GTEST_SKIP() << "cannot bind loopback in this environment";
  }
  EXPECT_EQ(server.requests_served(), 0u);
  for (std::uint64_t n = 1; n <= 8; ++n) {
    int status = 0;
    ASSERT_TRUE(obs::http_get(server.port(), n % 2 ? "/health" : "/missing",
                              nullptr, &status));
    EXPECT_EQ(status, n % 2 ? 200 : 404);
    // http_get returns once it has read the whole response, so the count
    // must already include this request — exactly, not eventually.
    EXPECT_EQ(server.requests_served(), n);
  }
  server.stop();
}

}  // namespace
}  // namespace kdd
