#include "kdd/concurrent.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/check.hpp"
#include "compress/delta.hpp"
#include "kdd/kdd_cache.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace kdd {

namespace {

std::chrono::steady_clock::rep now_ticks() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

/// Global-registry mirrors of the async engine's admission telemetry
/// (docs/observability.md): outstanding requests, submission-queue wait and
/// admission rejections. The per-instance AsyncEngineStats counters stay
/// authoritative for tests; these feed the exporters.
struct EngineMetrics {
  obs::Gauge inflight;         ///< kdd_inflight_requests
  obs::Histogram queue_wait;   ///< kdd_queue_wait_ns
  obs::Counter rejected;       ///< kdd_admission_rejected_total
};

EngineMetrics& engine_metrics() {
  static EngineMetrics* m = [] {
    auto* em = new EngineMetrics();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    em->inflight = obs::Gauge(&reg, "kdd_inflight_requests");
    em->queue_wait = obs::Histogram(&reg, "kdd_queue_wait_ns");
    em->rejected = obs::Counter(&reg, "kdd_admission_rejected_total");
    return em;
  }();
  return *m;
}

}  // namespace

ConcurrentCache::ConcurrentCache(CachePolicy* policy,
                                 std::chrono::milliseconds idle_wakeup)
    : ConcurrentCache(policy, nullptr, idle_wakeup, 0) {}

ConcurrentCache::ConcurrentCache(CachePolicy* policy, const RaidLayout* layout,
                                 std::chrono::milliseconds idle_wakeup,
                                 std::uint32_t cleaner_threads)
    : policy_(policy),
      layout_(layout),
      spec_(dynamic_cast<SpeculativeWriteSource*>(policy)),
      idle_wakeup_(idle_wakeup),
      last_request_ns_(now_ticks()) {
  KDD_CHECK(policy_ != nullptr);
  if (cleaner_threads > 0) {
    destage_ = dynamic_cast<DestageSource*>(policy_);
    if (destage_ != nullptr) {
      // The pool owns destage from here on: the policy's inline watermark
      // passes become no-ops so foreground requests never serialise behind
      // a whole cleaning pass again.
      destage_->set_external_cleaner(true);
      pool_size_ = cleaner_threads;
      pool_.reserve(cleaner_threads);
      for (std::uint32_t w = 0; w < cleaner_threads; ++w) {
        pool_.emplace_back([this, w] { pool_main(w); });
      }
    }
  }
  // Started last: the cleaner doubles as the pool feeder and reads the pool
  // state set up above.
  cleaner_ = std::thread([this] { cleaner_main(); });
}

ConcurrentCache::~ConcurrentCache() {
  // Quiesce the async engine first: reject new submissions, complete every
  // in-flight request (their callbacks may still reference live client
  // state), then stop the workers. Only after the front end is quiet do the
  // cleaner feeder and pool come down.
  if (!engine_workers_.empty()) {
    quiesce_submissions();
    {
      const std::lock_guard<std::mutex> alock(amu_);
      engine_stop_ = true;
    }
    engine_cv_.notify_all();
    submit_cv_.notify_all();
    for (std::thread& t : engine_workers_) t.join();
  }
  // Stop the feeder first so no new jobs are queued, then the workers.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  cleaner_.join();
  if (!pool_.empty()) {
    {
      const std::lock_guard<std::mutex> qlock(queue_mu_);
      pool_stop_ = true;
    }
    queue_cv_.notify_all();
    for (std::thread& t : pool_) t.join();
    // Workers exit immediately on stop; release the claims of any jobs they
    // left behind so a later flush of the policy sees no phantom claims.
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& q : queues_) {
      for (const DestageJob& job : q) destage_->destage_abandon(job.groups);
      q.clear();
    }
    queued_jobs_ = 0;
  }
}

std::size_t ConcurrentCache::stripe_of(Lba lba) const {
  const std::uint64_t key = layout_ ? layout_->group_of(lba) : lba;
  // kStripes is a power of two; mix the key a little so striped workloads
  // whose groups advance in lockstep still spread across stripes.
  return static_cast<std::size_t>((key ^ (key >> 7)) & (kStripes - 1));
}

std::size_t ConcurrentCache::stripe_of_group(GroupId g) const {
  // Must agree with stripe_of() for LBAs of the same group (the front door
  // keys stripes by group when a layout is installed).
  return static_cast<std::size_t>((g ^ (g >> 7)) & (kStripes - 1));
}

void ConcurrentCache::touch_idle_clock() {
  last_request_ns_.store(now_ticks(), std::memory_order_relaxed);
}

IoStatus ConcurrentCache::read(Lba lba, std::span<std::uint8_t> out) {
  return exec_read(lba, out);
}

IoStatus ConcurrentCache::write(Lba lba, std::span<const std::uint8_t> data) {
  return exec_write(lba, data);
}

IoStatus ConcurrentCache::exec_read(Lba lba, std::span<std::uint8_t> out) {
  const std::size_t s = stripe_of(lba);
  const std::lock_guard<std::mutex> stripe(stripe_mu_[s]);
  shards_[s].reads.fetch_add(1, std::memory_order_relaxed);
  touch_idle_clock();
  const std::lock_guard<std::mutex> lock(mu_);
  const IoStatus st = policy_->read(lba, out, nullptr);
  if (st != IoStatus::kOk) {
    shards_[s].read_errors.fetch_add(1, std::memory_order_relaxed);
  }
  return st;
}

IoStatus ConcurrentCache::exec_write(Lba lba, std::span<const std::uint8_t> data) {
  const std::size_t s = stripe_of(lba);
  const std::lock_guard<std::mutex> stripe(stripe_mu_[s]);
  shards_[s].writes.fetch_add(1, std::memory_order_relaxed);
  touch_idle_clock();
  bool kick = false;
  IoStatus st;
  {
    SpeculativeWriteSource::Snapshot snap;
    thread_local Page spec_base;  // delta base scratch, one page per thread
    if (spec_ != nullptr && data.size() == kPageSize) {
      if (spec_base.size() != kPageSize) spec_base.assign(kPageSize, 0);
      const std::lock_guard<std::mutex> lock(mu_);
      snap = spec_->write_snapshot(lba, spec_base);
    }
    if (snap.valid) {
      // Write-hit split: the delta compression — the dominant per-request
      // CPU cost — runs here with only the stripe lock held. The stripe lock
      // excludes every same-parity-group request, so the snapshot can only
      // be perturbed by cross-stripe activity, which write_prepared detects
      // (and then recomputes inline).
      SpeculativeWriteSource::PreparedDelta pd;
      make_delta_into(spec_base, data, pd.blob);
      pd.packed = static_cast<std::uint32_t>(pd.blob.packed_size());
      const std::lock_guard<std::mutex> lock(mu_);
      st = spec_->write_prepared(lba, data, snap, std::move(pd), nullptr);
      kick = destage_ != nullptr && !pool_.empty() && destage_->destage_pending();
    } else {
      const std::lock_guard<std::mutex> lock(mu_);
      st = policy_->write(lba, data, nullptr);
      // With the pool active the policy's inline watermark pass is a no-op,
      // so the write path itself must wake the feeder once deferred work
      // piles up.
      kick = destage_ != nullptr && !pool_.empty() && destage_->destage_pending();
    }
  }
  if (st != IoStatus::kOk) {
    shards_[s].write_errors.fetch_add(1, std::memory_order_relaxed);
  }
  if (kick) nudge_feeder();
  return st;
}

void ConcurrentCache::nudge_feeder() { cv_.notify_one(); }

void ConcurrentCache::flush() {
  // Async requests drain first (holding no locks): a request still queued at
  // the flush barrier could re-dirty groups behind the pool drain below.
  drain_async();
  touch_idle_clock();
  flushes_.fetch_add(1, std::memory_order_relaxed);
  if (!pool_.empty()) {
    // Deterministic drain barrier: pause refills, wait until every queued
    // and in-flight job has committed (or been abandoned), then run the
    // policy's own flush inline while *holding* mu_ — the feeder cannot
    // start a refill without mu_, so the re-check under mu_ closes the race
    // where a refill that had already passed the pause check queues one
    // last wave of jobs after our first drain wait. Claims are all released
    // at the barrier, so the inline clean_all drains whatever the pool had
    // not reached yet.
    refill_pause_.fetch_add(1, std::memory_order_acq_rel);
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      bool drained;
      {
        const std::lock_guard<std::mutex> qlock(queue_mu_);
        drained = queued_jobs_ == 0 && inflight_jobs_ == 0;
      }
      if (drained) break;
      lock.unlock();
      {
        std::unique_lock<std::mutex> qlock(queue_mu_);
        drain_cv_.wait(qlock, [this] {
          return queued_jobs_ == 0 && inflight_jobs_ == 0;
        });
      }
      lock.lock();  // re-check: a paused feeder can no longer refill
    }
    policy_->flush(nullptr);
    publish_snapshot_locked();
    lock.unlock();
    refill_pause_.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  policy_->flush(nullptr);
  publish_snapshot_locked();
}

void ConcurrentCache::publish_snapshot_locked() const {
  CacheStats s = policy_->stats();
  const std::lock_guard<std::mutex> snap(snap_mu_);
  last_snapshot_ = s;
}

CacheStats ConcurrentCache::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  publish_snapshot_locked();
  const std::lock_guard<std::mutex> snap(snap_mu_);
  return last_snapshot_;
}

CacheStats ConcurrentCache::stats_snapshot() const {
  const std::lock_guard<std::mutex> snap(snap_mu_);
  return last_snapshot_;
}

ConcurrentCache::FrontStats ConcurrentCache::front_stats() const {
  FrontStats out;
  for (const StripeShard& sh : shards_) {
    out.reads += sh.reads.load(std::memory_order_relaxed);
    out.writes += sh.writes.load(std::memory_order_relaxed);
    out.read_errors += sh.read_errors.load(std::memory_order_relaxed);
    out.write_errors += sh.write_errors.load(std::memory_order_relaxed);
  }
  out.flushes = flushes_.load(std::memory_order_relaxed);
  return out;
}

// ---------------------------------------------------------------------------
// Async submission/completion engine
// ---------------------------------------------------------------------------

void ConcurrentCache::start_async(const AsyncEngineOptions& opts) {
  KDD_CHECK(engine_workers_.empty());
  KDD_CHECK(opts.workers >= 1);
  KDD_CHECK(opts.shard_queue_depth >= 1);
  KDD_CHECK(opts.high_watermark > opts.low_watermark);
  KDD_CHECK(opts.low_watermark >= 1);
  aopts_ = opts;
  engine_workers_.reserve(opts.workers);
  for (std::uint32_t w = 0; w < opts.workers; ++w) {
    engine_workers_.emplace_back([this, w] { engine_main(w); });
  }
}

bool ConcurrentCache::submit_request(AsyncRequest&& rq, bool block) {
  KDD_CHECK(!engine_workers_.empty());
  const std::size_t s = stripe_of(rq.lba);
  std::unique_lock<std::mutex> lock(amu_);
  bool stalled = false;
  while (true) {
    if (quiesced_ > 0 || engine_stop_) {
      async_rejected_.fetch_add(1, std::memory_order_relaxed);
      engine_metrics().rejected.inc();
      obs::health_admission_reject();
      return false;
    }
    if (!gate_closed_ && async_q_[s].size() < aopts_.shard_queue_depth) break;
    if (!block) {
      async_rejected_.fetch_add(1, std::memory_order_relaxed);
      engine_metrics().rejected.inc();
      obs::health_admission_reject();
      return false;
    }
    stalled = true;
    submit_cv_.wait(lock);
  }
  if (stalled) async_stalls_.fetch_add(1, std::memory_order_relaxed);
  rq.enqueue_ns = now_ticks();
  async_q_[s].push_back(std::move(rq));
  ++async_inflight_;
  if (async_inflight_ >= aopts_.high_watermark) gate_closed_ = true;
  async_submitted_.fetch_add(1, std::memory_order_relaxed);
  engine_metrics().inflight.set(static_cast<std::int64_t>(async_inflight_));
  obs::health_submission();
  obs::health_inflight(static_cast<std::int64_t>(async_inflight_));
  lock.unlock();
  engine_cv_.notify_one();
  return true;
}

bool ConcurrentCache::submit_read(Lba lba, std::span<std::uint8_t> out,
                                  AsyncCompletion cb) {
  AsyncRequest rq;
  rq.lba = lba;
  rq.is_read = true;
  rq.out = out;
  rq.cb = std::move(cb);
  return submit_request(std::move(rq), /*block=*/true);
}

bool ConcurrentCache::submit_write(Lba lba, std::span<const std::uint8_t> data,
                                   AsyncCompletion cb) {
  AsyncRequest rq;
  rq.lba = lba;
  rq.payload.assign(data.begin(), data.end());
  rq.cb = std::move(cb);
  return submit_request(std::move(rq), /*block=*/true);
}

bool ConcurrentCache::try_submit_read(Lba lba, std::span<std::uint8_t> out,
                                      AsyncCompletion cb) {
  AsyncRequest rq;
  rq.lba = lba;
  rq.is_read = true;
  rq.out = out;
  rq.cb = std::move(cb);
  return submit_request(std::move(rq), /*block=*/false);
}

bool ConcurrentCache::try_submit_write(Lba lba,
                                       std::span<const std::uint8_t> data,
                                       AsyncCompletion cb) {
  AsyncRequest rq;
  rq.lba = lba;
  rq.payload.assign(data.begin(), data.end());
  rq.cb = std::move(cb);
  return submit_request(std::move(rq), /*block=*/false);
}

std::size_t ConcurrentCache::claimable_shard(std::size_t home) const {
  for (std::size_t i = 0; i < kStripes; ++i) {
    const std::size_t s = (home + i) % kStripes;
    if (!shard_busy_[s] && !async_q_[s].empty()) return s;
  }
  return kStripes;
}

void ConcurrentCache::engine_main(std::size_t worker) {
  // Home range mirrors the cleaner pool: worker w starts its claim scan at a
  // distinct shard so workers spread instead of piling onto shard 0.
  const std::size_t home =
      (worker * kStripes) / std::max<std::size_t>(std::size_t{1}, aopts_.workers);
  std::unique_lock<std::mutex> lock(amu_);
  std::deque<AsyncRequest> batch;
  while (true) {
    std::size_t shard = kStripes;
    engine_cv_.wait(lock, [&] {
      shard = claimable_shard(home);
      return engine_stop_ || shard != kStripes;
    });
    // Drain-before-exit: on stop, finish whatever is still queued (the
    // destructor quiesces first, so normally nothing is).
    if (shard == kStripes) {
      if (engine_stop_) return;
      continue;
    }
    // Claim the whole shard FIFO: one worker per shard at a time, requests
    // executed in submission order — per-parity-group order stays total.
    shard_busy_[shard] = true;
    batch.swap(async_q_[shard]);
    lock.unlock();

    const auto dequeue_ns = now_ticks();
    for (AsyncRequest& rq : batch) {
      const auto wait_ns =
          static_cast<std::uint64_t>(std::max<std::chrono::steady_clock::rep>(
              0, dequeue_ns - rq.enqueue_ns));
      engine_metrics().queue_wait.observe(wait_ns);
      obs::health_queue_wait(wait_ns);
      const IoStatus st = rq.is_read ? exec_read(rq.lba, rq.out)
                                     : exec_write(rq.lba, rq.payload);
      if (rq.cb) rq.cb(st);
      async_completed_.fetch_add(1, std::memory_order_relaxed);
      obs::health_completion();
      {
        const std::lock_guard<std::mutex> g(amu_);
        --async_inflight_;
        engine_metrics().inflight.set(
            static_cast<std::int64_t>(async_inflight_));
        obs::health_inflight(static_cast<std::int64_t>(async_inflight_));
        if (gate_closed_ && async_inflight_ <= aopts_.low_watermark) {
          gate_closed_ = false;
          submit_cv_.notify_all();
        }
        if (async_inflight_ == 0) async_drain_cv_.notify_all();
      }
    }
    batch.clear();

    lock.lock();
    shard_busy_[shard] = false;
    // The shard may have refilled while busy; whoever is idle picks it up.
    // Submitters blocked on this shard's depth bound see the space we freed.
    if (!async_q_[shard].empty()) engine_cv_.notify_one();
    submit_cv_.notify_all();
  }
}

void ConcurrentCache::drain_async() {
  std::unique_lock<std::mutex> lock(amu_);
  async_drain_cv_.wait(lock, [this] { return async_inflight_ == 0; });
}

void ConcurrentCache::quiesce_submissions() {
  std::unique_lock<std::mutex> lock(amu_);
  ++quiesced_;
  // Blocked submitters must observe the quiesce and return false — they hold
  // client buffers whose completions would otherwise never fire.
  submit_cv_.notify_all();
  async_drain_cv_.wait(lock, [this] { return async_inflight_ == 0; });
}

void ConcurrentCache::resume_submissions() {
  {
    const std::lock_guard<std::mutex> lock(amu_);
    KDD_CHECK(quiesced_ > 0);
    --quiesced_;
  }
  submit_cv_.notify_all();
}

AsyncEngineStats ConcurrentCache::async_stats() const {
  AsyncEngineStats s;
  s.submitted = async_submitted_.load(std::memory_order_relaxed);
  s.completed = async_completed_.load(std::memory_order_relaxed);
  s.rejected = async_rejected_.load(std::memory_order_relaxed);
  s.stalls = async_stalls_.load(std::memory_order_relaxed);
  s.inflight = s.submitted - s.completed;
  return s;
}

bool ConcurrentCache::handle_disk_failure_online(std::uint32_t disk) {
  auto* kdd = dynamic_cast<KddCache*>(policy_);
  KDD_CHECK(kdd != nullptr);
  // Quiesce discipline: no request may be in flight when the disk drops —
  // the rebuild engine's stripe barrier assumes it sees a settled dirty-group
  // map, and a half-executed request completing mid-barrier would race it.
  // Sync front-door requests are unaffected (they serialise on mu_ below).
  quiesce_submissions();
  bool started;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    // The quiesce barrier also covers the staging segment: with submissions
    // parked, seal whatever is open so the rebuild engine's stripe windows
    // start from an SSD that holds every committed page.
    kdd->force_seal(nullptr);
    started = kdd->handle_disk_failure_online(disk);
  }
  resume_submissions();
  return started;
}

// ---------------------------------------------------------------------------
// Cleaner pool
// ---------------------------------------------------------------------------

void ConcurrentCache::refill_pool_locked(bool force) {
  if (refill_pause_.load(std::memory_order_acquire) > 0) return;
  if (!force && !destage_->destage_pending()) return;
  {
    // Bounded in-flight: keep roughly one job per worker outstanding. The
    // claim below adds at most kStripes jobs, so total claims stay bounded
    // by (hint * workers) groups per wave.
    const std::lock_guard<std::mutex> qlock(queue_mu_);
    if (queued_jobs_ + inflight_jobs_ >= pool_size_) return;
  }
  const std::size_t target = destage_->destage_batch_hint() * pool_size_;
  const std::vector<GroupId> groups = destage_->destage_claim(target);
  if (groups.empty()) return;
  // The claim holds the coldest dirty groups in disk-layout order. Partition
  // it into per-stripe jobs; order within a job is preserved, so each worker
  // still walks its parity pages in layout order.
  std::array<std::vector<GroupId>, kStripes> per_stripe;
  for (const GroupId g : groups) {
    per_stripe[stripe_of_group(g)].push_back(g);
  }
  {
    const std::lock_guard<std::mutex> qlock(queue_mu_);
    for (std::size_t s = 0; s < kStripes; ++s) {
      if (per_stripe[s].empty()) continue;
      queues_[s].push_back(DestageJob{s, std::move(per_stripe[s])});
      ++queued_jobs_;
    }
  }
  queue_cv_.notify_all();
}

void ConcurrentCache::run_destage_job(const DestageJob& job) {
  // Background root: the pipeline's stage spans sample at the request period
  // and attribute to a kClean root, exactly like the inline cleaner.
  const obs::TraceContextScope trace(obs::Stage::kClean);
  // The stripe lock freezes foreground requests to the claimed groups across
  // all three stages (see kdd/destage.hpp).
  const std::lock_guard<std::mutex> stripe(stripe_mu_[job.stripe]);
  std::unique_ptr<DestageUnit> unit;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    unit = destage_->destage_prepare(job.groups, nullptr);
  }
  if (unit == nullptr) return;  // nothing left; claims already released
  unit->fold();  // stage 2: no policy lock — this is the parallel section
  {
    const std::lock_guard<std::mutex> lock(mu_);
    destage_->destage_commit(*unit, nullptr);
  }
  pool_batches_.fetch_add(1, std::memory_order_relaxed);
}

void ConcurrentCache::pool_main(std::size_t worker) {
  // Home range: worker w prefers stripes [w*K/N, (w+1)*K/N) and steals from
  // the rest only when its own range is empty.
  const std::size_t home = (worker * kStripes) / pool_size_;
  std::unique_lock<std::mutex> qlock(queue_mu_);
  while (true) {
    queue_cv_.wait(qlock, [this] { return pool_stop_ || queued_jobs_ > 0; });
    if (pool_stop_) return;  // leftover jobs are abandoned by the destructor
    DestageJob job;
    bool found = false;
    for (std::size_t i = 0; i < kStripes; ++i) {
      const std::size_t s = (home + i) % kStripes;
      if (queues_[s].empty()) continue;
      job = std::move(queues_[s].front());
      queues_[s].pop_front();
      found = true;
      break;
    }
    if (!found) continue;  // raced with another worker; wait again
    --queued_jobs_;
    ++inflight_jobs_;
    qlock.unlock();
    run_destage_job(job);
    qlock.lock();
    --inflight_jobs_;
    if (queued_jobs_ == 0 && inflight_jobs_ == 0) drain_cv_.notify_all();
  }
}

void ConcurrentCache::cleaner_main() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, idle_wakeup_);
    if (stop_) break;
    // The idle clock is an atomic outside mu_, so a request that is blocked
    // on mu_ right now has already stamped it and defers this pass.
    const auto last = std::chrono::steady_clock::time_point(
        std::chrono::steady_clock::duration(
            last_request_ns_.load(std::memory_order_relaxed)));
    const auto idle_for = std::chrono::steady_clock::now() - last;
    const bool idle = idle_for >= idle_wakeup_;
    if (destage_ != nullptr && pool_size_ > 0) {
      // Pool mode: this thread is the feeder. Refill on every wake-up —
      // destage has to keep pace with the foreground load, not wait for
      // idleness — and when the system *is* idle, force a full drain wave
      // (the paper's idle-triggered cleaning) through the pool instead of
      // running the policy's inline pass.
      refill_pool_locked(/*force=*/idle);
      if (idle) {
        cleaner_passes_.fetch_add(1);
        publish_snapshot_locked();
      }
      continue;
    }
    if (idle) {
      policy_->on_idle(nullptr);
      cleaner_passes_.fetch_add(1);
      publish_snapshot_locked();  // refresh the lock-free stats snapshot
    }
  }
}

}  // namespace kdd
