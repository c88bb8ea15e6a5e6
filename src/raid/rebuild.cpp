#include "raid/rebuild.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"

namespace kdd {

namespace {

struct EngineMetrics {
  obs::Gauge array_state;
  obs::Gauge rebuild_progress;
  obs::Gauge spares_available;
  obs::Counter rebuilds_started;
  obs::Counter rebuilds_completed;
  obs::Counter barrier_deferrals;
  obs::Counter dwell_healthy;
  obs::Counter dwell_degraded;
  obs::Counter dwell_rebuilding;
};

EngineMetrics& engine_metrics() {
  static EngineMetrics* m = [] {
    auto* em = new EngineMetrics();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    em->array_state = obs::Gauge(&reg, "kdd_array_state");
    em->rebuild_progress = obs::Gauge(&reg, "kdd_rebuild_progress");
    em->spares_available = obs::Gauge(&reg, "kdd_spares_available");
    em->rebuilds_started = obs::Counter(&reg, "kdd_rebuilds_started_total");
    em->rebuilds_completed = obs::Counter(&reg, "kdd_rebuilds_completed_total");
    em->barrier_deferrals = obs::Counter(&reg, "kdd_rebuild_barrier_deferrals_total");
    em->dwell_healthy = obs::Counter(&reg, "kdd_dwell_healthy_ops_total");
    em->dwell_degraded = obs::Counter(&reg, "kdd_dwell_degraded_ops_total");
    em->dwell_rebuilding = obs::Counter(&reg, "kdd_dwell_rebuilding_ops_total");
    return em;
  }();
  return *m;
}

}  // namespace

RebuildEngine::RebuildEngine(RaidArray* array, OnlineRebuildConfig config,
                             SparePool* spares)
    : array_(array), cfg_(config), spares_(spares) {
  KDD_CHECK(array_ != nullptr);
  KDD_CHECK(cfg_.chunk_groups > 0);
  KDD_CHECK(cfg_.min_chunk_groups > 0);
  KDD_CHECK(cfg_.min_chunk_groups <= cfg_.chunk_groups);
  publish_state();
}

ArrayHealth RebuildEngine::health() const {
  if (array_->rebuild_active()) return ArrayHealth::kRebuilding;
  if (array_->failed_disk_count() > 0) return ArrayHealth::kDegraded;
  return ArrayHealth::kHealthy;
}

bool RebuildEngine::on_disk_failure(std::uint32_t disk) {
  array_->fail_disk(disk);
  publish_state();
  return start_rebuild();
}

bool RebuildEngine::start_rebuild() {
  if (array_->rebuild_active()) return false;
  const std::uint32_t n = array_->geometry().num_disks;
  std::uint32_t failed = RaidArray::kNoRebuild;
  for (std::uint32_t d = 0; d < n; ++d) {
    if (array_->disk_failed(d)) {
      failed = d;
      break;
    }
  }
  if (failed == RaidArray::kNoRebuild) return false;
  if (spares_ && !spares_->take()) return false;  // wait for a restock
  array_->rebuild_begin(failed);
  ops_since_step_ = 0;
  engine_metrics().rebuilds_started.inc();
  publish_state();
  publish_checkpoint();
  return true;
}

void RebuildEngine::note_foreground(std::uint64_t n) {
  ops_since_step_ += n;
  const ArrayHealth h = health();
  dwell_[static_cast<std::size_t>(h)] += n;
  switch (h) {
    case ArrayHealth::kHealthy: engine_metrics().dwell_healthy.inc(n); break;
    case ArrayHealth::kDegraded: engine_metrics().dwell_degraded.inc(n); break;
    case ArrayHealth::kRebuilding: engine_metrics().dwell_rebuilding.inc(n); break;
  }
}

std::uint32_t RebuildEngine::effective_chunk(bool urgent) const {
  if (urgent) return cfg_.chunk_groups;
  // Adaptive throttle: the longer the foreground queue kept us away (ops
  // backed up since the last step), the smaller the chunk we steal now.
  if (ops_since_step_ >= cfg_.pressure_window) return cfg_.min_chunk_groups;
  if (ops_since_step_ <= cfg_.ops_between_steps) return cfg_.chunk_groups;
  const std::uint64_t span = cfg_.pressure_window - cfg_.ops_between_steps;
  const std::uint64_t into = ops_since_step_ - cfg_.ops_between_steps;
  const std::uint64_t range = cfg_.chunk_groups - cfg_.min_chunk_groups;
  return static_cast<std::uint32_t>(cfg_.chunk_groups - (range * into) / span);
}

std::uint64_t RebuildEngine::pump(IoPlan* plan, bool urgent) {
  // A dead rail makes every device op fail; stepping (or force-destaging via
  // the barrier) now would misread rejections as media loss. The checkpointed
  // cursor waits for power restore + resume().
  if (!array_->powered()) return 0;
  if (!array_->rebuild_active()) {
    // A spare may have been restocked since the failure: retry the start.
    if (health() != ArrayHealth::kDegraded || !start_rebuild()) return 0;
  }
  if (!urgent && ops_since_step_ < cfg_.ops_between_steps) return 0;
  const std::uint64_t total = array_->geometry().num_groups();
  const GroupId begin = array_->rebuild_cursor();
  const GroupId end = std::min<GroupId>(total, begin + effective_chunk(urgent));
  if (begin < end && barrier_ && !barrier_(begin, end)) {
    // Dirty groups in the window could not be destaged right now. Defer
    // and retry the window on the next pump.
    ++barrier_deferrals_;
    engine_metrics().barrier_deferrals.inc();
    return 0;
  }
  const std::uint64_t done = array_->rebuild_step(end - begin, plan);
  groups_rebuilt_ += done;
  ops_since_step_ = 0;
  publish_checkpoint();
  if (array_->rebuild_cursor() >= total) {
    array_->rebuild_finish();
    ++rebuilds_completed_;
    engine_metrics().rebuilds_completed.inc();
    publish_state();
    publish_checkpoint();
  }
  return done;
}

void RebuildEngine::resume(const RebuildCheckpoint& cp) {
  KDD_CHECK(cp.active);
  array_->rebuild_resume(cp.disk, cp.cursor);
  ops_since_step_ = 0;
  publish_state();
  publish_checkpoint();
}

std::uint64_t RebuildEngine::progress_permille() const {
  if (!array_->rebuild_active()) {
    return health() == ArrayHealth::kHealthy ? 1000 : 0;
  }
  const std::uint64_t total = array_->geometry().num_groups();
  return total == 0 ? 1000 : (array_->rebuild_cursor() * 1000) / total;
}

void RebuildEngine::publish_state() const {
  EngineMetrics& m = engine_metrics();
  const int state = static_cast<int>(health());
  if (state != published_state_) {
    obs::flight_note(obs::FlightKind::kStateTransition, "array_health", state,
                     published_state_);
    obs::health_array_state(state);
    published_state_ = state;
  }
  m.array_state.set(static_cast<std::int64_t>(health()));
  m.rebuild_progress.set(static_cast<std::int64_t>(progress_permille()));
  if (spares_) m.spares_available.set(spares_->available());
}

void RebuildEngine::publish_checkpoint() const {
  engine_metrics().rebuild_progress.set(
      static_cast<std::int64_t>(progress_permille()));
  if (!sink_) return;
  RebuildCheckpoint cp;
  cp.active = array_->rebuild_active();
  cp.disk = cp.active ? array_->rebuilding_disk() : 0;
  cp.cursor = cp.active ? array_->rebuild_cursor() : 0;
  sink_(cp);
}

}  // namespace kdd
