#include "kdd/concurrent.hpp"

#include "common/check.hpp"
#include "compress/delta.hpp"
#include "kdd/kdd_cache.hpp"

namespace kdd {

namespace {

std::chrono::steady_clock::rep now_ticks() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace

ConcurrentCache::ConcurrentCache(CachePolicy* policy, const RaidLayout* layout,
                                 std::chrono::milliseconds idle_wakeup)
    : policy_(policy),
      layout_(layout),
      spec_(dynamic_cast<SpeculativeWriteSource*>(policy)),
      idle_wakeup_(idle_wakeup),
      last_request_ns_(now_ticks()) {
  KDD_CHECK(policy_ != nullptr);
  KDD_CHECK(layout_ != nullptr);
  cleaner_ = std::thread([this] { cleaner_main(); });
}

ConcurrentCache::~ConcurrentCache() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  cleaner_.join();
}

std::size_t ConcurrentCache::stripe_of(Lba lba) const {
  const std::uint64_t key = layout_->group_of(lba);
  // kStripes is a power of two; mix the key a little so striped workloads
  // whose groups advance in lockstep still spread across stripes.
  return static_cast<std::size_t>((key ^ (key >> 7)) & (kStripes - 1));
}

void ConcurrentCache::touch_idle_clock() {
  last_request_ns_.store(now_ticks(), std::memory_order_relaxed);
}

IoStatus ConcurrentCache::read(Lba lba, std::span<std::uint8_t> out) {
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

IoStatus ConcurrentCache::write(Lba lba, std::span<const std::uint8_t> data) {
  const std::size_t s = stripe_of(lba);
  const std::lock_guard<std::mutex> stripe(stripe_mu_[s]);
  shards_[s].writes.fetch_add(1, std::memory_order_relaxed);
  touch_idle_clock();
  SpeculativeWriteSource::Snapshot snap;
  thread_local Page spec_base;  // delta base scratch, one page per thread
  if (spec_ != nullptr && data.size() == kPageSize) {
    if (spec_base.size() != kPageSize) spec_base.assign(kPageSize, 0);
    const std::lock_guard<std::mutex> lock(mu_);
    snap = spec_->write_snapshot(lba, spec_base);
  }
  IoStatus st;
  if (snap.valid) {
    // Write-hit split: the delta compression — the dominant per-request CPU
    // cost — runs here with only the stripe lock held. The stripe lock
    // excludes every same-parity-group request, so the snapshot can only be
    // perturbed by cross-stripe activity, which write_prepared detects (and
    // then recomputes inline).
    SpeculativeWriteSource::PreparedDelta pd;
    make_delta_into(spec_base, data, pd.blob);
    pd.packed = static_cast<std::uint32_t>(pd.blob.packed_size());
    const std::lock_guard<std::mutex> lock(mu_);
    st = spec_->write_prepared(lba, data, snap, std::move(pd), nullptr);
  } else {
    const std::lock_guard<std::mutex> lock(mu_);
    st = policy_->write(lba, data, nullptr);
  }
  if (st != IoStatus::kOk) {
    shards_[s].write_errors.fetch_add(1, std::memory_order_relaxed);
  }
  return st;
}

void ConcurrentCache::flush() {
  touch_idle_clock();
  flushes_.fetch_add(1, std::memory_order_relaxed);
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

bool ConcurrentCache::handle_disk_failure_online(std::uint32_t disk) {
  auto* kdd = dynamic_cast<KddCache*>(policy_);
  KDD_CHECK(kdd != nullptr);
  // Every request runs under mu_, so none is half-executed here.
  const std::lock_guard<std::mutex> lock(mu_);
  return kdd->handle_disk_failure_online(disk);
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
    if (std::chrono::steady_clock::now() - last >= idle_wakeup_) {
      policy_->on_idle(nullptr);
      cleaner_passes_.fetch_add(1);
      publish_snapshot_locked();  // refresh the lock-free stats snapshot
    }
  }
}

}  // namespace kdd
