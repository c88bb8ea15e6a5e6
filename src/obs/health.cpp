#include "obs/health.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/check.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/span.hpp"

namespace kdd::obs {

// ---------------------------------------------------------------------------
// Rolling-window primitives
// ---------------------------------------------------------------------------

namespace {

inline std::uint64_t window_buckets(std::uint64_t window_us,
                                    std::uint64_t bucket_us) {
  return std::max<std::uint64_t>(1, window_us / bucket_us);
}

/// Rings are sized up to a power of two so slot indexing is a mask, not a
/// divide. The spare slots just extend retention; window queries filter by
/// epoch stamp, so they never see stale buckets.
inline std::size_t ring_pow2(std::size_t slots) {
  return std::bit_ceil(std::max<std::size_t>(1, slots));
}

/// True when `epoch` (a stamped slot) falls inside the last `n` buckets
/// ending at `cur` — i.e. (cur - n, cur]. Empty slots never match.
inline bool epoch_in_window(std::uint64_t epoch, std::uint64_t cur,
                            std::uint64_t n, std::uint64_t empty) {
  return epoch != empty && epoch <= cur && epoch + n > cur;
}

}  // namespace

RollingCounter::RollingCounter(std::uint64_t bucket_us, std::size_t slots,
                               std::uint64_t fast_buckets,
                               std::uint64_t slow_buckets)
    : bucket_us_(bucket_us > 0 ? bucket_us : 1),
      cells_(ring_pow2(slots)),
      mask_(cells_.size() - 1),
      fast_n_(fast_buckets > 0 ? fast_buckets : cells_.size()),
      slow_n_(slow_buckets > 0 ? slow_buckets : cells_.size()) {}

void RollingCounter::advance(std::uint64_t now_us) {
  const std::uint64_t epoch = epoch_cache_.get(now_us, bucket_us_);
  if (epoch <= cur_epoch_) return;
  const std::uint64_t steps = epoch - cur_epoch_;
  // Per window: a jump of >= n buckets empties it outright (no adds landed
  // in the skipped epochs — add() advances first), otherwise subtract each
  // departing bucket once. The loop is bounded by n, so an idle gap of any
  // length costs at most one ring's worth of lookups. Each bucket is
  // subtracted exactly once across successive advances (the departing
  // ranges are consecutive and disjoint), and a zeroing jump only skips
  // buckets that future advances can never target again. A window whose
  // cached sum is already 0 holds only zero-valued buckets (counts are
  // non-negative), so its expiry loop is skipped outright — idle rings
  // (e.g. reject/submission counters in a sync replay) cost nothing here.
  if (fast_sum_ != 0) {
    if (steps >= fast_n_) {
      fast_sum_ = 0;
    } else {
      for (std::uint64_t e = cur_epoch_ + 1; e <= epoch; ++e) {
        if (e >= fast_n_) fast_sum_ -= value_at(e - fast_n_);
      }
    }
  }
  if (slow_sum_ != 0) {
    if (steps >= slow_n_) {
      slow_sum_ = 0;
    } else {
      for (std::uint64_t e = cur_epoch_ + 1; e <= epoch; ++e) {
        if (e >= slow_n_) slow_sum_ -= value_at(e - slow_n_);
      }
    }
  }
  cur_epoch_ = epoch;
}

void RollingCounter::add(std::uint64_t now_us, std::uint64_t n) {
  advance(now_us);
  const std::uint64_t epoch = epoch_cache_.get(now_us, bucket_us_);
  Cell& c = cells_[static_cast<std::size_t>(epoch) & mask_];
  if (c.epoch != epoch) {
    c.epoch = epoch;
    c.sum = 0;
  }
  c.sum += n;
  // A current-epoch add is inside both cached windows by construction; a
  // late-stamped add (behind the advanced clock) still lands in them as
  // long as its bucket has not slid out.
  if (epoch + fast_n_ > cur_epoch_) fast_sum_ += n;
  if (epoch + slow_n_ > cur_epoch_) slow_sum_ += n;
}

std::uint64_t RollingCounter::sum(std::uint64_t now_us,
                                  std::uint64_t window_us) const {
  const std::uint64_t cur = now_us / bucket_us_;
  const std::uint64_t n =
      std::min<std::uint64_t>(window_buckets(window_us, bucket_us_),
                              cells_.size());
  std::uint64_t total = 0;
  for (const Cell& c : cells_) {
    if (epoch_in_window(c.epoch, cur, n, kEmpty)) total += c.sum;
  }
  return total;
}

void RollingCounter::reset() {
  std::fill(cells_.begin(), cells_.end(), Cell{});
  cur_epoch_ = 0;
  fast_sum_ = 0;
  slow_sum_ = 0;
}

RollingMax::RollingMax(std::uint64_t bucket_us, std::size_t slots)
    : bucket_us_(bucket_us > 0 ? bucket_us : 1),
      cells_(ring_pow2(slots)),
      mask_(cells_.size() - 1) {}

void RollingMax::record(std::uint64_t now_us, std::uint64_t v) {
  const std::uint64_t epoch = epoch_cache_.get(now_us, bucket_us_);
  Cell& c = cells_[static_cast<std::size_t>(epoch) & mask_];
  if (c.epoch != epoch) {
    c.epoch = epoch;
    c.max = 0;
  }
  c.max = std::max(c.max, v);
}

std::uint64_t RollingMax::max(std::uint64_t now_us,
                              std::uint64_t window_us) const {
  const std::uint64_t cur = now_us / bucket_us_;
  const std::uint64_t n =
      std::min<std::uint64_t>(window_buckets(window_us, bucket_us_),
                              cells_.size());
  std::uint64_t best = 0;
  for (const Cell& c : cells_) {
    if (epoch_in_window(c.epoch, cur, n, kEmpty)) best = std::max(best, c.max);
  }
  return best;
}

void RollingMax::reset() { std::fill(cells_.begin(), cells_.end(), Cell{}); }

RollingHistogram::RollingHistogram(std::uint64_t bucket_us, std::size_t slots,
                                   std::uint64_t fast_buckets,
                                   std::uint64_t slow_buckets)
    : bucket_us_(bucket_us > 0 ? bucket_us : 1),
      slots_(ring_pow2(slots)),
      counts_(slots_.size()),
      mask_(slots_.size() - 1),
      fast_n_(fast_buckets > 0 ? fast_buckets : slots_.size()),
      slow_n_(slow_buckets > 0 ? slow_buckets : slots_.size()) {}

void RollingHistogram::advance(std::uint64_t now_us) {
  const std::uint64_t epoch = epoch_cache_.get(now_us, bucket_us_);
  if (epoch <= cur_epoch_) return;
  const std::uint64_t steps = epoch - cur_epoch_;
  // Same expiry scheme as RollingCounter::advance, over the dense count
  // cells. bad <= total per bucket, so an all-zero count window implies an
  // all-zero bad window and both skip together.
  if (fast_count_ != 0) {
    if (steps >= fast_n_) {
      fast_count_ = 0;
      fast_bad_ = 0;
    } else {
      for (std::uint64_t e = cur_epoch_ + 1; e <= epoch; ++e) {
        if (e < fast_n_) continue;
        const CountCell& c =
            counts_[static_cast<std::size_t>(e - fast_n_) & mask_];
        if (c.epoch == e - fast_n_) {
          fast_count_ -= c.total;
          fast_bad_ -= c.bad;
        }
      }
    }
  }
  if (slow_count_ != 0) {
    if (steps >= slow_n_) {
      slow_count_ = 0;
      slow_bad_ = 0;
    } else {
      for (std::uint64_t e = cur_epoch_ + 1; e <= epoch; ++e) {
        if (e < slow_n_) continue;
        const CountCell& c =
            counts_[static_cast<std::size_t>(e - slow_n_) & mask_];
        if (c.epoch == e - slow_n_) {
          slow_count_ -= c.total;
          slow_bad_ -= c.bad;
        }
      }
    }
  }
  cur_epoch_ = epoch;
}

void RollingHistogram::record(std::uint64_t now_us, std::uint64_t value_us,
                              bool bad) {
  advance(now_us);
  const std::uint64_t epoch = epoch_cache_.get(now_us, bucket_us_);
  CountCell& c = counts_[static_cast<std::size_t>(epoch) & mask_];
  if (c.epoch != epoch) {
    c.epoch = epoch;
    c.total = 0;
    c.bad = 0;
  }
  ++c.total;
  c.bad += bad ? 1 : 0;
  // A current-epoch record is inside both cached windows by construction; a
  // late-stamped one (behind the advanced clock) still lands in them as
  // long as its bucket has not slid out.
  if (epoch + fast_n_ > cur_epoch_) {
    ++fast_count_;
    fast_bad_ += bad ? 1 : 0;
  }
  if (epoch + slow_n_ > cur_epoch_) {
    ++slow_count_;
    slow_bad_ += bad ? 1 : 0;
  }
  Slot& s = slots_[static_cast<std::size_t>(epoch) & mask_];
  if (s.epoch != epoch) {
    s.epoch = epoch;
    s.inline_n = 0;
    s.spilled = false;
  }
  if (!s.spilled) {
    if (s.inline_n < kInlineSamples) {
      s.samples[s.inline_n++] = value_us;
      return;
    }
    // Bucket went dense: spill the inline samples into the slot's histogram
    // (allocated once, reused across rotations) and append there from now on.
    if (!s.hist) s.hist = std::make_unique<LatencyHistogram>();
    s.hist->reset();
    for (std::uint32_t i = 0; i < s.inline_n; ++i) s.hist->record(s.samples[i]);
    s.spilled = true;
  }
  s.hist->record(value_us);
}

void RollingHistogram::merge_window(std::uint64_t now_us,
                                    std::uint64_t window_us,
                                    LatencyHistogram* out) const {
  out->reset();
  const std::uint64_t cur = now_us / bucket_us_;
  const std::uint64_t n =
      std::min<std::uint64_t>(window_buckets(window_us, bucket_us_),
                              slots_.size());
  for (const Slot& s : slots_) {
    if (!epoch_in_window(s.epoch, cur, n, kEmpty)) continue;
    if (s.spilled) {
      out->merge(*s.hist);
    } else {
      for (std::uint32_t i = 0; i < s.inline_n; ++i) out->record(s.samples[i]);
    }
  }
}

std::uint64_t RollingHistogram::count(std::uint64_t now_us,
                                      std::uint64_t window_us) const {
  const std::uint64_t cur = now_us / bucket_us_;
  const std::uint64_t n =
      std::min<std::uint64_t>(window_buckets(window_us, bucket_us_),
                              slots_.size());
  std::uint64_t total = 0;
  for (const CountCell& c : counts_) {
    if (epoch_in_window(c.epoch, cur, n, kEmpty)) total += c.total;
  }
  return total;
}

std::uint64_t RollingHistogram::bad_count(std::uint64_t now_us,
                                          std::uint64_t window_us) const {
  const std::uint64_t cur = now_us / bucket_us_;
  const std::uint64_t n =
      std::min<std::uint64_t>(window_buckets(window_us, bucket_us_),
                              slots_.size());
  std::uint64_t total = 0;
  for (const CountCell& c : counts_) {
    if (epoch_in_window(c.epoch, cur, n, kEmpty)) total += c.bad;
  }
  return total;
}

void RollingHistogram::reset() {
  for (Slot& s : slots_) {
    s.epoch = kEmpty;
    s.inline_n = 0;
    s.spilled = false;
  }
  std::fill(counts_.begin(), counts_.end(), CountCell{});
  cur_epoch_ = 0;
  fast_count_ = 0;
  slow_count_ = 0;
  fast_bad_ = 0;
  slow_bad_ = 0;
}

// ---------------------------------------------------------------------------
// HealthEngine
// ---------------------------------------------------------------------------

const char* alert_rule_name(AlertRule r) {
  switch (r) {
    case AlertRule::kLatencyBurn: return "latency_burn";
    case AlertRule::kHitRatioCollapse: return "hit_ratio_collapse";
    case AlertRule::kWearImbalance: return "wear_imbalance";
    case AlertRule::kArrayDegraded: return "array_degraded";
    case AlertRule::kNumRules: break;
  }
  return "unknown";
}

namespace {

/// Ring size: the slow window plus the current partial bucket.
std::size_t ring_slots(const HealthConfig& cfg) {
  return static_cast<std::size_t>(
      window_buckets(cfg.slow_window_us, cfg.bucket_us) + 1);
}

std::uint64_t fast_n(const HealthConfig& cfg) {
  return window_buckets(cfg.fast_window_us, cfg.bucket_us);
}

std::uint64_t slow_n(const HealthConfig& cfg) {
  return window_buckets(cfg.slow_window_us, cfg.bucket_us);
}

}  // namespace

HealthEngine::HealthEngine(HealthConfig cfg, MetricsRegistry* registry)
    : cfg_(cfg),
      latency_(cfg_.bucket_us, ring_slots(cfg_), fast_n(cfg_), slow_n(cfg_)),
      hits_(cfg_.bucket_us, ring_slots(cfg_), fast_n(cfg_), slow_n(cfg_)),
      misses_(cfg_.bucket_us, ring_slots(cfg_), fast_n(cfg_), slow_n(cfg_)),
      destage_lag_(cfg_.bucket_us, ring_slots(cfg_)) {
  KDD_CHECK(cfg_.fast_window_us <= cfg_.slow_window_us);
  for (int i = 0; i < kNumAlertRules; ++i) {
    const char* name = alert_rule_name(static_cast<AlertRule>(i));
    rules_[i].active_gauge =
        Gauge(registry, prom_series_name("kdd_alerts_active", "rule", name));
    rules_[i].fired_counter = Counter(
        registry, prom_series_name("kdd_alerts_fired_total", "rule", name));
    rules_[i].active_gauge.set(0);
  }
  burn_gauge_ = Gauge(registry, "kdd_slo_latency_burn");
  hit_ratio_gauge_ = Gauge(registry, "kdd_hit_ratio_permille");
  wear_skew_gauge_ = Gauge(registry, "kdd_wear_skew_permille");
}

HealthEngine::~HealthEngine() {
  if (installed() == this) install(nullptr);
}

std::atomic<HealthEngine*>& HealthEngine::installed_ptr() {
  static std::atomic<HealthEngine*> ptr{nullptr};
  return ptr;
}

void HealthEngine::install(HealthEngine* engine) {
  installed_ptr().store(engine, std::memory_order_release);
}

void HealthEngine::advance_locked(std::uint64_t now_us) {
  if (now_us > now_us_) now_us_ = now_us;
}

void HealthEngine::observe_request(std::uint64_t now_us,
                                   std::uint64_t latency_us) {
  std::lock_guard<SpinLock> lock(mu_);
  advance_locked(now_us);
  latency_.record(now_us_, latency_us,
                  latency_us > cfg_.slo.latency_threshold_us);
  maybe_evaluate_locked();
}

void HealthEngine::observe_requests(const std::uint64_t* now_us,
                                    const std::uint64_t* latency_us,
                                    std::size_t n) {
  if (n == 0) return;
  std::lock_guard<SpinLock> lock(mu_);
  const std::uint64_t threshold = cfg_.slo.latency_threshold_us;
  for (std::size_t i = 0; i < n; ++i) {
    advance_locked(now_us[i]);
    latency_.record(now_us_, latency_us[i], latency_us[i] > threshold);
    maybe_evaluate_locked();
  }
}

void HealthEngine::tick(std::uint64_t now_us) {
  std::lock_guard<SpinLock> lock(mu_);
  advance_locked(now_us);
  evaluate_locked();
}

void HealthEngine::observe_destage_lag(std::uint64_t now_us,
                                       std::uint64_t stale_groups) {
  std::lock_guard<SpinLock> lock(mu_);
  advance_locked(now_us);
  destage_lag_.record(now_us_, stale_groups);
}

void HealthEngine::observe_region_wear(std::size_t region, double wear) {
  std::lock_guard<SpinLock> lock(mu_);
  if (region >= region_wear_.size()) region_wear_.resize(region + 1, 0.0);
  region_wear_[region] = wear;
  wear_dirty_ = true;
}

void HealthEngine::note_array_state(int state) {
  std::lock_guard<SpinLock> lock(mu_);
  array_state_ = state;
}

std::uint64_t HealthEngine::now_us() const {
  std::lock_guard<SpinLock> lock(mu_);
  return now_us_;
}

void HealthEngine::maybe_evaluate_locked() {
  ++events_since_eval_;
  if (evaluated_once_ &&
      (now_us_ - last_eval_us_ < cfg_.eval_every_us ||
       events_since_eval_ < cfg_.eval_min_events)) {
    return;
  }
  evaluate_locked();
}

void HealthEngine::fold_pending_locked() {
  // Stamp the hook deltas accumulated since the last fold into the rings.
  // Plain relaxed loads: the hooks run on the simulator thread, and a value
  // racing past the load simply lands in the next fold.
  const auto fold = [this](std::atomic<std::uint64_t>& total,
                           std::uint64_t& folded, RollingCounter& ring) {
    const std::uint64_t t = total.load(std::memory_order_relaxed);
    if (t != folded) {
      ring.add(now_us_, t - folded);
      folded = t;
    }
  };
  fold(pending_hits_, folded_hits_, hits_);
  fold(pending_misses_, folded_misses_, misses_);
}

HealthEngine::WindowStats HealthEngine::window_stats_locked(
    std::uint64_t window_us) const {
  WindowStats w;
  w.requests = latency_.count(now_us_, window_us);
  w.bad_requests = latency_.bad_count(now_us_, window_us);
  const double budget = 1.0 - cfg_.slo.latency_target;
  if (w.requests > 0 && budget > 0.0) {
    const double bad_frac =
        static_cast<double>(w.bad_requests) / static_cast<double>(w.requests);
    w.burn_rate = bad_frac / budget;
  }
  const std::uint64_t h = hits_.sum(now_us_, window_us);
  const std::uint64_t m = misses_.sum(now_us_, window_us);
  if (h + m > 0) {
    w.hit_ratio = static_cast<double>(h) / static_cast<double>(h + m);
  }
  LatencyHistogram merged;
  latency_.merge_window(now_us_, window_us, &merged);
  if (merged.count() > 0) {
    w.p50_us = merged.percentile_us(0.5);
    w.p99_us = merged.percentile_us(0.99);
    w.p999_us = merged.percentile_us(0.999);
  }
  return w;
}

HealthEngine::WindowStats HealthEngine::window_stats(bool fast) {
  std::lock_guard<SpinLock> lock(mu_);
  fold_pending_locked();
  return window_stats_locked(fast ? cfg_.fast_window_us : cfg_.slow_window_us);
}

double HealthEngine::wear_skew() const {
  std::lock_guard<SpinLock> lock(mu_);
  if (region_wear_.size() < 2) return 0.0;
  double total = 0.0;
  double peak = 0.0;
  for (const double w : region_wear_) {
    total += w;
    peak = std::max(peak, w);
  }
  if (total <= 0.0) return 0.0;
  const double mean = total / static_cast<double>(region_wear_.size());
  return mean > 0.0 ? peak / mean : 0.0;
}

void HealthEngine::set_alert_locked(AlertRule rule, bool active, double value) {
  RuleState& st = rules_[static_cast<int>(rule)];
  st.value = value;
  if (st.active == active) return;
  st.active = active;
  st.since_us = now_us_;
  AlertEvent ev;
  ev.t_us = now_us_;
  ev.rule = rule;
  ev.fired = active;
  ev.value = value;
  log_.push_back(ev);
  const char* name = alert_rule_name(rule);
  st.active_gauge.set(active ? 1 : 0);
  if (active) {
    ++st.fired_count;
    st.fired_counter.inc();
    KDD_LOG(Warn, "health: alert FIRED rule=%s value=%.3f t=%llu", name, value,
            static_cast<unsigned long long>(now_us_));
  } else {
    KDD_LOG(Info, "health: alert resolved rule=%s value=%.3f t=%llu", name,
            value, static_cast<unsigned long long>(now_us_));
  }
  flight_note(active ? FlightKind::kAlertFired : FlightKind::kAlertResolved,
              name, static_cast<std::int64_t>(value * 1000.0), 0);
  if (TraceBuffer::enabled()) {
    TraceBuffer::global().instant(
        std::string(active ? "alert_fired: " : "alert_resolved: ") + name);
  }
}

void HealthEngine::evaluate_locked() {
  evaluated_once_ = true;
  last_eval_us_ = now_us_;
  events_since_eval_ = 0;
  const SloObjectives& slo = cfg_.slo;

  // Keep the flight recorder's clock anchored to the engine clock at eval
  // cadence, so fault-path events interleave correctly with alerts without
  // a CAS on every observed request.
  if (FlightRecorder::enabled()) {
    FlightRecorder::global().set_now_us(now_us_);
  }

  // Fold the lock-free hook totals, then expire departed buckets from every
  // cached window sum and evaluate against the cached values — the
  // evaluator must not rescan the rings (that is O(slots) per query and
  // blew the perf gate's replay budget).
  fold_pending_locked();
  latency_.advance(now_us_);
  hits_.advance(now_us_);
  misses_.advance(now_us_);

  // 1. Latency-SLO burn: both windows must burn to fire (the multi-window
  // guard); the fast window alone decides the resolve.
  {
    const std::uint64_t req_f = latency_.fast_count();
    const std::uint64_t bad_f = latency_.fast_bad();
    const std::uint64_t req_s = latency_.slow_count();
    const std::uint64_t bad_s = latency_.slow_bad();
    const double budget = 1.0 - slo.latency_target;
    const auto burn = [budget](std::uint64_t bad, std::uint64_t req) {
      if (req == 0 || budget <= 0.0) return 0.0;
      return (static_cast<double>(bad) / static_cast<double>(req)) / budget;
    };
    const double burn_f = burn(bad_f, req_f);
    const double burn_s = burn(bad_s, req_s);
    const RuleState& st = rules_[static_cast<int>(AlertRule::kLatencyBurn)];
    if (!st.active) {
      if (req_f >= slo.min_requests && burn_f >= slo.burn_fire &&
          burn_s >= slo.burn_fire) {
        set_alert_locked(AlertRule::kLatencyBurn, true, burn_f);
      } else {
        set_alert_locked(AlertRule::kLatencyBurn, false, burn_f);
      }
    } else if (burn_f < slo.burn_resolve) {
      set_alert_locked(AlertRule::kLatencyBurn, false, burn_f);
    } else {
      set_alert_locked(AlertRule::kLatencyBurn, true, burn_f);
    }
    burn_gauge_.set(static_cast<std::int64_t>(burn_s * 1000.0));
  }

  // 2. Hit-ratio collapse (fast window, with a minimum-ops floor; an idle
  // window counts as recovered).
  {
    const std::uint64_t h = hits_.fast_sum();
    const std::uint64_t m = misses_.fast_sum();
    const std::uint64_t ops = h + m;
    const double ratio =
        ops > 0 ? static_cast<double>(h) / static_cast<double>(ops) : 1.0;
    const RuleState& st =
        rules_[static_cast<int>(AlertRule::kHitRatioCollapse)];
    const bool collapsed =
        ops >= slo.min_requests && ratio < slo.hit_ratio_floor;
    if (!st.active) {
      set_alert_locked(AlertRule::kHitRatioCollapse, collapsed, ratio);
    } else {
      set_alert_locked(AlertRule::kHitRatioCollapse,
                       ops > 0 && ratio < slo.hit_ratio_floor, ratio);
    }
    if (ops > 0) {
      hit_ratio_gauge_.set(static_cast<std::int64_t>(ratio * 1000.0));
    }
  }

  // 3. Wear imbalance across SSD regions (hysteresis: wear converges
  // slowly, so the resolve bound sits below the fire bound). The skew only
  // moves when observe_region_wear() reports, so it is recomputed on the
  // dirty flag and reused otherwise.
  {
    if (wear_dirty_) {
      wear_dirty_ = false;
      double total = 0.0;
      double peak = 0.0;
      for (const double w : region_wear_) {
        total += w;
        peak = std::max(peak, w);
      }
      wear_total_cached_ = total;
      wear_skew_cached_ =
          (region_wear_.size() >= 2 && total > 0.0)
              ? peak / (total / static_cast<double>(region_wear_.size()))
              : 0.0;
    }
    const double skew = wear_skew_cached_;
    const RuleState& st = rules_[static_cast<int>(AlertRule::kWearImbalance)];
    const bool enough = wear_total_cached_ >= slo.wear_min_total;
    if (!st.active) {
      set_alert_locked(AlertRule::kWearImbalance,
                       enough && skew >= slo.wear_skew_fire, skew);
    } else {
      set_alert_locked(AlertRule::kWearImbalance,
                       skew > slo.wear_skew_resolve, skew);
    }
    wear_skew_gauge_.set(static_cast<std::int64_t>(skew * 1000.0));
  }

  // 4. Array-state regression: anything but healthy is an active incident.
  set_alert_locked(AlertRule::kArrayDegraded, array_state_ != 0,
                   static_cast<double>(array_state_));
}

std::vector<AlertStatus> HealthEngine::alerts() const {
  std::lock_guard<SpinLock> lock(mu_);
  std::vector<AlertStatus> out;
  out.reserve(kNumAlertRules);
  for (int i = 0; i < kNumAlertRules; ++i) {
    AlertStatus st;
    st.rule = static_cast<AlertRule>(i);
    st.active = rules_[i].active;
    st.fired_count = rules_[i].fired_count;
    st.since_us = rules_[i].since_us;
    st.value = rules_[i].value;
    out.push_back(st);
  }
  return out;
}

std::vector<AlertEvent> HealthEngine::events() const {
  std::lock_guard<SpinLock> lock(mu_);
  return log_;
}

bool HealthEngine::any_active() const {
  std::lock_guard<SpinLock> lock(mu_);
  for (const RuleState& st : rules_) {
    if (st.active) return true;
  }
  return false;
}

std::string HealthEngine::health_json() {
  std::lock_guard<SpinLock> lock(mu_);
  fold_pending_locked();
  std::string out = "{\"schema\":\"kdd-health-v1\",";
  char buf[160];
  std::snprintf(buf, sizeof buf, "\"t_us\":%llu,",
                static_cast<unsigned long long>(now_us_));
  out += buf;
  std::snprintf(
      buf, sizeof buf,
      "\"slo\":{\"latency_threshold_us\":%llu,\"latency_target\":%.4f,"
      "\"burn_fire\":%.2f,\"burn_resolve\":%.2f,\"hit_ratio_floor\":%.3f},",
      static_cast<unsigned long long>(cfg_.slo.latency_threshold_us),
      cfg_.slo.latency_target, cfg_.slo.burn_fire, cfg_.slo.burn_resolve,
      cfg_.slo.hit_ratio_floor);
  out += buf;
  out += "\"windows\":{";
  const auto emit_window = [&](const char* key, std::uint64_t window_us,
                               bool last) {
    const WindowStats w = window_stats_locked(window_us);
    const double attainment =
        w.requests > 0 ? 1.0 - static_cast<double>(w.bad_requests) /
                                   static_cast<double>(w.requests)
                       : 1.0;
    std::snprintf(buf, sizeof buf,
                  "\"%s\":{\"window_us\":%llu,\"requests\":%llu,"
                  "\"bad_requests\":%llu,\"attainment\":%.6f,",
                  key, static_cast<unsigned long long>(window_us),
                  static_cast<unsigned long long>(w.requests),
                  static_cast<unsigned long long>(w.bad_requests), attainment);
    out += buf;
    std::snprintf(buf, sizeof buf,
                  "\"burn_rate\":%.4f,\"hit_ratio\":%.4f,\"p50_us\":%llu,"
                  "\"p99_us\":%llu,\"p999_us\":%llu}%s",
                  w.burn_rate, w.hit_ratio,
                  static_cast<unsigned long long>(w.p50_us),
                  static_cast<unsigned long long>(w.p99_us),
                  static_cast<unsigned long long>(w.p999_us), last ? "" : ",");
    out += buf;
  };
  emit_window("fast", cfg_.fast_window_us, false);
  emit_window("slow", cfg_.slow_window_us, true);
  out += "},";
  double wear_total = 0.0;
  double wear_peak = 0.0;
  for (const double w : region_wear_) {
    wear_total += w;
    wear_peak = std::max(wear_peak, w);
  }
  const double skew =
      (region_wear_.size() >= 2 && wear_total > 0.0)
          ? wear_peak / (wear_total / static_cast<double>(region_wear_.size()))
          : 0.0;
  std::snprintf(buf, sizeof buf,
                "\"gauges\":{\"array_state\":%d,"
                "\"destage_lag\":%llu,\"wear_skew\":%.4f,\"wear_regions\":%zu},",
                array_state_,
                static_cast<unsigned long long>(
                    destage_lag_.max(now_us_, cfg_.fast_window_us)),
                skew, region_wear_.size());
  out += buf;
  out += "\"alerts\":[";
  for (int i = 0; i < kNumAlertRules; ++i) {
    const RuleState& st = rules_[i];
    if (i > 0) out += ',';
    out += "{\"rule\":\"";
    out += alert_rule_name(static_cast<AlertRule>(i));
    std::snprintf(buf, sizeof buf,
                  "\",\"active\":%s,\"fired_count\":%llu,\"since_us\":%llu,"
                  "\"value\":%.4f}",
                  st.active ? "true" : "false",
                  static_cast<unsigned long long>(st.fired_count),
                  static_cast<unsigned long long>(st.since_us), st.value);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace kdd::obs
