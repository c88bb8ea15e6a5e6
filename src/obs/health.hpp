// Continuous health engine: rolling-window SLO tracking + burn-rate alerts.
//
// Two layers:
//
//  1. Rolling-window primitives — RollingCounter / RollingMax /
//     RollingHistogram keep a ring of time-bucketed cells stamped with their
//     epoch (now / bucket_us). Recording is O(1): the slot for the current
//     epoch is reset lazily when its stamp is stale, so an idle gap of any
//     length costs nothing (no catch-up rotation loop). Queries merge the
//     slots whose epoch falls inside [now - window, now]; sub-histograms
//     merge into a scratch LatencyHistogram for sliding p50/p99/p999.
//
//  2. HealthEngine — owns rolling rings over request latency, hit/miss and
//     destage lag, plus per-region SSD wear and the latest array state, and
//     evaluates multi-window burn-rate rules (fast 5 s / slow 60 s of
//     *simulated* time) on a tick cadence. Alerts fire and resolve as structured
//     events: a KDD_LOG line, a FlightRecorder event, a TraceBuffer instant
//     (when tracing is on), a `kdd_alerts_active{rule=...}` gauge edge and
//     a `kdd_alerts_fired_total{rule=...}` counter.
//
// Clocking: everything is driven by the event-simulator clock through
// observe_request()/tick() — never the wall clock — so drills and figure
// replays evaluate rules byte-deterministically. Core layers (KddCache,
// ConcurrentCache) have no clock; their counter hooks are lock-free
// cumulative totals that the evaluator folds into the rings, stamped with
// the engine's last-seen time.
//
// Hook dispatch mirrors the flight recorder: core layers call the inline
// health_* free functions, which are one relaxed load when no engine is
// installed (the default outside instrumented runs). With an engine
// installed the hot path stays within the perf gate's 5% replay budget by
// construction: hooks are single relaxed fetch_adds, request observation is
// a spinlock plus O(1) ring appends, and the rule pass is duty-cycled by
// both sim time (eval_every_us) and observation count (eval_min_events).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/metrics.hpp"

namespace kdd::obs {

/// now -> epoch (t / bucket_us) without the 64-bit divide in the common
/// case — a repeat call inside the same bucket is one subtract + compare.
/// The divide costs ~25 cycles and the rolling rings see several calls per
/// simulated request, which matters for the perf gate's replay budget.
struct EpochCache {
  std::uint64_t epoch = 0;
  std::uint64_t start_us = 0;  ///< epoch 0 starts at t = 0

  std::uint64_t get(std::uint64_t now_us, std::uint64_t bucket_us) {
    if (now_us - start_us < bucket_us) return epoch;
    epoch = now_us / bucket_us;
    start_us = epoch * bucket_us;
    return epoch;
  }
};

/// Ring of per-epoch sums. Epoch = t / bucket_us; a slot whose stamp is
/// stale is reset on first touch, so idle gaps need no rotation loop.
///
/// Besides the generic O(window) sum() query, the ring maintains two cached
/// sliding sums — a fast and a slow window, in buckets — updated
/// incrementally: add() folds into both, and advance() expires the buckets
/// that left each window since the last call (amortised O(1) per epoch).
/// The rule evaluator runs every sim-second against these rings, so it
/// reads the cached sums instead of rescanning 61 slots per query —
/// that rescan is what blew the perf gate's 5 % replay budget.
class RollingCounter {
 public:
  /// `fast_buckets`/`slow_buckets` size the two cached windows (0 = default
  /// to the whole ring).
  RollingCounter(std::uint64_t bucket_us, std::size_t slots,
                 std::uint64_t fast_buckets = 0, std::uint64_t slow_buckets = 0);

  void add(std::uint64_t now_us, std::uint64_t n = 1);
  /// Sum over the buckets intersecting [now - window_us, now] (the current
  /// partial bucket counts; older-than-ring epochs were lazily dropped).
  std::uint64_t sum(std::uint64_t now_us, std::uint64_t window_us) const;
  void reset();

  /// Expires buckets that left the cached windows as of `now_us`. Callers
  /// must keep `now_us` monotone (the engine's clock is clamped).
  void advance(std::uint64_t now_us);
  /// Cached sliding sums, valid as of the last advance()/add().
  std::uint64_t fast_sum() const { return fast_sum_; }
  std::uint64_t slow_sum() const { return slow_sum_; }

  std::uint64_t bucket_us() const { return bucket_us_; }
  std::size_t slots() const { return cells_.size(); }

 private:
  static constexpr std::uint64_t kEmpty = ~0ull;

  /// One ring slot: the epoch stamp and its sum share a 16-byte cell, so
  /// every slot access (append, expiry lookup) touches one cache line
  /// instead of two parallel arrays' worth. The engine's rings compete for
  /// cache with the simulator on the replay hot path, so the halved
  /// footprint is measurable against the perf gate budget.
  struct Cell {
    std::uint64_t sum = 0;
    std::uint64_t epoch = kEmpty;
  };

  /// The ring's value for exactly `epoch`, 0 when its slot was reused.
  std::uint64_t value_at(std::uint64_t epoch) const {
    const Cell& c = cells_[static_cast<std::size_t>(epoch) & mask_];
    return c.epoch == epoch ? c.sum : 0;
  }

  std::uint64_t bucket_us_;
  std::vector<Cell> cells_;  ///< power-of-two size (see mask_)
  /// Rings are sized up to a power of two so slot = epoch & mask_. The
  /// advance() expiry loop indexes the ring once per departed bucket; with a
  /// modulo that is a hardware divide per lookup, which measurably dented
  /// the perf gate's replay budget.
  std::size_t mask_;
  std::uint64_t fast_n_;
  std::uint64_t slow_n_;
  std::uint64_t cur_epoch_ = 0;
  std::uint64_t fast_sum_ = 0;
  std::uint64_t slow_sum_ = 0;
  EpochCache epoch_cache_;
};

/// Ring of per-epoch maxima (destage lag).
class RollingMax {
 public:
  RollingMax(std::uint64_t bucket_us, std::size_t slots);

  void record(std::uint64_t now_us, std::uint64_t v);
  /// Max over the window; 0 when no bucket intersects it.
  std::uint64_t max(std::uint64_t now_us, std::uint64_t window_us) const;
  void reset();

 private:
  static constexpr std::uint64_t kEmpty = ~0ull;

  struct Cell {
    std::uint64_t max = 0;
    std::uint64_t epoch = kEmpty;
  };

  std::uint64_t bucket_us_;
  std::vector<Cell> cells_;  ///< power-of-two size (see mask_)
  std::size_t mask_;
  EpochCache epoch_cache_;
};

/// Ring of per-epoch latency populations with sliding percentile queries.
///
/// Each slot starts as a small inline sample buffer and spills into a full
/// LatencyHistogram only once the bucket collects more than kInlineSamples
/// values. Sparse buckets (the common case for 1 s buckets in the replays)
/// therefore cost one array append per record and a few hundred bytes per
/// slot, instead of touching a ~40 KiB histogram per bucket — that footprint
/// alone evicted the simulator's working set and blew the perf gate's 5 %
/// replay budget. Dense buckets pay a one-time spill (replay of the inline
/// samples) and then behave exactly like the histogram they spilled into;
/// merge_window() replays inline samples, so sparse buckets are merged at
/// full precision.
///
/// The ring doubles as the engine's request/bad-request counter: every slot
/// already counts its population, and record() takes a `bad` flag, so the
/// burn-rate rule reads cached fast/slow counts off the same cells the
/// latency append just touched instead of paying two extra counter rings
/// per request (measured against the perf gate's replay budget). The cached
/// sums follow the RollingCounter scheme: record() folds in, advance()
/// expires departed buckets.
class RollingHistogram {
 public:
  /// `fast_buckets`/`slow_buckets` size the two cached count windows
  /// (0 = default to the whole ring).
  RollingHistogram(std::uint64_t bucket_us, std::size_t slots,
                   std::uint64_t fast_buckets = 0,
                   std::uint64_t slow_buckets = 0);

  void record(std::uint64_t now_us, std::uint64_t value_us, bool bad = false);
  /// Merges the window's per-bucket populations into `out` (reset first).
  void merge_window(std::uint64_t now_us, std::uint64_t window_us,
                    LatencyHistogram* out) const;
  std::uint64_t count(std::uint64_t now_us, std::uint64_t window_us) const;
  /// Values recorded with bad=true in the window.
  std::uint64_t bad_count(std::uint64_t now_us, std::uint64_t window_us) const;
  void reset();

  /// Expires buckets that left the cached count windows as of `now_us`.
  void advance(std::uint64_t now_us);
  /// Cached sliding counts, valid as of the last advance()/record().
  std::uint64_t fast_count() const { return fast_count_; }
  std::uint64_t slow_count() const { return slow_count_; }
  std::uint64_t fast_bad() const { return fast_bad_; }
  std::uint64_t slow_bad() const { return slow_bad_; }

 private:
  static constexpr std::uint64_t kEmpty = ~0ull;
  /// Sized so a Slot spans two cache lines: the replays' 1 s buckets hold a
  /// handful of samples, and the recording path competes for cache with the
  /// simulator's working set — a fat inline buffer measurably slowed the
  /// perf gate's replay even though most of it was never written.
  static constexpr std::uint32_t kInlineSamples = 9;

  struct Slot {
    std::uint64_t epoch = kEmpty;
    std::uint32_t inline_n = 0;  ///< valid until `spilled`
    bool spilled = false;
    std::uint64_t samples[kInlineSamples];
    std::unique_ptr<LatencyHistogram> hist;  ///< reused across rotations
  };

  /// Count header for one epoch, kept in a dense parallel ring instead of
  /// inside Slot: the window expiry loop in advance() runs once per eval
  /// across many departed epochs, and walking 16-byte cells (4 per cache
  /// line) instead of striding the ~100-byte sample slots is the difference
  /// between a handful of cache lines per rule pass and a cold read per
  /// departed bucket (measured against the perf gate's replay budget).
  struct CountCell {
    std::uint64_t epoch = kEmpty;
    std::uint32_t total = 0;  ///< bucket count, inline or spilled
    std::uint32_t bad = 0;    ///< over-threshold subset of `total`
  };

  std::uint64_t bucket_us_;
  std::vector<Slot> slots_;        ///< power-of-two size (see mask_)
  std::vector<CountCell> counts_;  ///< same size/indexing as slots_
  std::size_t mask_;
  std::uint64_t fast_n_;
  std::uint64_t slow_n_;
  std::uint64_t cur_epoch_ = 0;
  std::uint64_t fast_count_ = 0;
  std::uint64_t slow_count_ = 0;
  std::uint64_t fast_bad_ = 0;
  std::uint64_t slow_bad_ = 0;
  EpochCache epoch_cache_;
};

/// Burn-rate rules the engine evaluates. Keep alert_rule_name() and the SLO
/// rule reference in docs/observability.md in sync when extending.
enum class AlertRule : std::uint8_t {
  kLatencyBurn,      ///< over-threshold request fraction burns the error budget
  kHitRatioCollapse, ///< fast-window cache hit ratio under the floor
  kWearImbalance,    ///< max/mean per-region SSD wear over the skew bound
  kArrayDegraded,    ///< ArrayHealth regressed from healthy
  kNumRules
};
inline constexpr int kNumAlertRules = static_cast<int>(AlertRule::kNumRules);

const char* alert_rule_name(AlertRule r);

/// SLO objectives + rule thresholds. Defaults suit the paper-scale sim
/// workloads; drills override per scenario.
struct SloObjectives {
  /// A request slower than this burns error budget ("bad" request).
  std::uint64_t latency_threshold_us = 20'000;
  /// Target good fraction (0.99 => 1% error budget).
  double latency_target = 0.99;
  /// Burn-rate multiple that fires / resolves kLatencyBurn. Both the fast
  /// and the slow window must exceed `burn_fire` to fire (the classic
  /// multi-window guard against blips); the alert resolves when the fast
  /// window drops below `burn_resolve`.
  double burn_fire = 2.0;
  double burn_resolve = 1.0;
  /// Minimum requests in a window before latency/hit-ratio rules evaluate.
  std::uint64_t min_requests = 16;

  double hit_ratio_floor = 0.25;  ///< fast-window hits/(hits+misses)
  /// Wear imbalance: fires when max/mean per-region wear >= skew_fire with
  /// at least `wear_min_total` total wear units observed; resolves at
  /// skew_resolve (hysteresis, since wear only converges slowly).
  double wear_skew_fire = 1.5;
  double wear_skew_resolve = 1.25;
  double wear_min_total = 64.0;
};

struct HealthConfig {
  std::uint64_t bucket_us = 1'000'000;       ///< ring granularity: 1 s
  std::uint64_t fast_window_us = 5'000'000;  ///< 5 s sim time
  std::uint64_t slow_window_us = 60'000'000; ///< 60 s sim time
  /// Rule evaluation cadence (sim time). Evaluation happens inside
  /// observe_request()/tick() when at least this much time passed.
  std::uint64_t eval_every_us = 1'000'000;
  /// Duty-cycle bound: a request-driven evaluation additionally waits for at
  /// least this many new observations since the last one. Dense workloads
  /// still evaluate every eval_every_us (the observations arrive first);
  /// sparse replays — where sim time outruns the request stream — amortize
  /// the rule pass over several requests instead of re-evaluating unchanged
  /// windows every sim-second. tick() always evaluates, so idle-period
  /// resolution is bounded by the caller's tick cadence, not by this. 32
  /// keeps alert latency well inside one fast window for any workload that
  /// can trip a rule (min_requests per window is 16) while holding the rule
  /// pass's share of the perf gate's replay budget down on sparse streams.
  std::uint64_t eval_min_events = 32;
  SloObjectives slo;
};

/// One fire/resolve edge, kept in an in-memory log for tests and /health.
struct AlertEvent {
  std::uint64_t t_us = 0;
  AlertRule rule = AlertRule::kLatencyBurn;
  bool fired = false;    ///< true = fired, false = resolved
  double value = 0.0;    ///< rule measurement at the edge (burn, ratio, skew)
};

/// Point-in-time rule state for /health and kddctl alerts.
struct AlertStatus {
  AlertRule rule = AlertRule::kLatencyBurn;
  bool active = false;
  std::uint64_t fired_count = 0;
  std::uint64_t since_us = 0;  ///< time of the last edge
  double value = 0.0;          ///< latest measurement
};

class HealthEngine {
 public:
  explicit HealthEngine(HealthConfig cfg = {},
                        MetricsRegistry* registry = &MetricsRegistry::global());
  ~HealthEngine();

  HealthEngine(const HealthEngine&) = delete;
  HealthEngine& operator=(const HealthEngine&) = delete;

  // -- Global install (what the health_* hooks dispatch to) -----------------
  static void install(HealthEngine* engine);
  static HealthEngine* installed() {
    return installed_ptr().load(std::memory_order_relaxed);
  }

  // -- Clocked observations (harness / simulator driven) --------------------
  /// Request completion at sim time `now_us`. Advances the engine clock,
  /// records latency, and evaluates rules when eval_every_us elapsed.
  void observe_request(std::uint64_t now_us, std::uint64_t latency_us);
  /// Batch form: replays `n` (timestamp, latency) pairs in array order under
  /// a single lock acquisition. The per-item work is exactly
  /// observe_request's — same ring appends, same duty-cycled rule passes at
  /// the same points — so window contents, eval times and alert edges are
  /// byte-identical to n sequential calls; only the n-1 saved lock
  /// round-trips differ, which is what keeps the batched session feed
  /// (TelemetrySession::flush_health) inside the perf gate's replay budget.
  void observe_requests(const std::uint64_t* now_us,
                        const std::uint64_t* latency_us, std::size_t n);
  /// Advances the clock and evaluates rules without recording a request.
  void tick(std::uint64_t now_us);
  /// Destage lag (stale parity groups awaiting cleaning) at `now_us`.
  void observe_destage_lag(std::uint64_t now_us, std::uint64_t stale_groups);
  /// Cumulative wear of one SSD region (mean erase count, write traffic —
  /// any monotone per-region measure; the rule only compares regions).
  void observe_region_wear(std::size_t region, double wear);

  // -- Clock-free hooks (core layers; stamped with the last-seen time) ------
  // The counter hooks are lock-free: one relaxed fetch_add on a cumulative
  // total. The evaluator folds the deltas into the rolling rings (stamped
  // with the engine clock) before each rule pass, so a hook costs a few ns
  // on the simulator's hot path and window attribution shifts by at most
  // one evaluation interval — well under the 5 s fast window.
  void note_cache_hit() { pending_hits_.fetch_add(1, std::memory_order_relaxed); }
  void note_cache_miss() {
    pending_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  void note_array_state(int state);

  // -- Queries ---------------------------------------------------------------
  const HealthConfig& config() const { return cfg_; }
  std::uint64_t now_us() const;
  /// Window percentiles of request latency (µs): {p50, p99, p999}. `fast`
  /// selects the fast window, else the slow one.
  struct WindowStats {
    std::uint64_t requests = 0;
    std::uint64_t bad_requests = 0;
    double burn_rate = 0.0;   ///< bad_fraction / error_budget
    double hit_ratio = -1.0;  ///< -1 when no cache ops in the window
    std::uint64_t p50_us = 0;
    std::uint64_t p99_us = 0;
    std::uint64_t p999_us = 0;
  };
  /// Folds pending hook counts first, so the stats reflect hooks that fired
  /// since the last evaluation (hence non-const, like health_json()).
  WindowStats window_stats(bool fast);
  std::vector<AlertStatus> alerts() const;
  std::vector<AlertEvent> events() const;
  bool any_active() const;
  /// Current max/mean per-region wear ratio (0 when fewer than 2 regions
  /// have reported).
  double wear_skew() const;
  /// One kdd-health-v1 JSON object: objectives, both windows' attainment,
  /// gauges, and the per-rule alert table.
  std::string health_json();

 private:
  /// Tiny test-and-set lock. The engine's critical sections are a handful of
  /// ring appends (plus a rare scrape-side snapshot), and the hot path pays
  /// the lock once per simulated request — an uncontended std::mutex
  /// round-trip is measurable against the perf gate's 5 % replay budget.
  class SpinLock {
   public:
    void lock() {
      while (flag_.test_and_set(std::memory_order_acquire)) {
      }
    }
    void unlock() { flag_.clear(std::memory_order_release); }

   private:
    std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
  };

  static std::atomic<HealthEngine*>& installed_ptr();

  void advance_locked(std::uint64_t now_us);
  void maybe_evaluate_locked();
  void evaluate_locked();
  void fold_pending_locked();
  void set_alert_locked(AlertRule rule, bool active, double value);
  WindowStats window_stats_locked(std::uint64_t window_us) const;

  const HealthConfig cfg_;

  mutable SpinLock mu_;
  std::uint64_t now_us_ = 0;
  std::uint64_t last_eval_us_ = 0;
  std::uint64_t events_since_eval_ = 0;
  bool evaluated_once_ = false;

  RollingHistogram latency_;  ///< also the request/bad-request counter
  RollingCounter hits_;
  RollingCounter misses_;
  RollingMax destage_lag_;
  std::vector<double> region_wear_;
  bool wear_dirty_ = false;
  double wear_skew_cached_ = 0.0;
  double wear_total_cached_ = 0.0;
  int array_state_ = 0;

  // Cumulative hook totals (written lock-free by the note_* hooks) and the
  // value of each total at the last fold. fold_pending_locked() stamps the
  // delta into the matching ring.
  std::atomic<std::uint64_t> pending_hits_{0};
  std::atomic<std::uint64_t> pending_misses_{0};
  std::uint64_t folded_hits_ = 0;
  std::uint64_t folded_misses_ = 0;

  struct RuleState {
    bool active = false;
    std::uint64_t fired_count = 0;
    std::uint64_t since_us = 0;
    double value = 0.0;
    Gauge active_gauge;
    Counter fired_counter;
  };
  RuleState rules_[kNumAlertRules];
  std::vector<AlertEvent> log_;

  Gauge burn_gauge_;       ///< kdd_slo_latency_burn (slow window, x1000)
  Gauge hit_ratio_gauge_;  ///< kdd_hit_ratio_permille (fast window)
  Gauge wear_skew_gauge_;  ///< kdd_wear_skew_permille
};

/// Installed-engine dispatchers: one relaxed load when no engine is
/// installed, so the probes stay compiled into the hot paths.
inline void health_cache_hit() {
  if (HealthEngine* h = HealthEngine::installed()) h->note_cache_hit();
}
inline void health_cache_miss() {
  if (HealthEngine* h = HealthEngine::installed()) h->note_cache_miss();
}
inline void health_array_state(int state) {
  if (HealthEngine* h = HealthEngine::installed()) h->note_array_state(state);
}

}  // namespace kdd::obs
