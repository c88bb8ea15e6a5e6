#include "cache/backend.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace kdd {

namespace {

/// Cached metric handles for the data-plane leaves, registered once in the
/// global registry (hot-path cost per I/O: one relaxed fetch_add each).
struct BackendMetrics {
  obs::Counter retry_attempts;   ///< extra attempts beyond the first
  obs::Counter retry_exhausted;  ///< ops that failed after all retries
  obs::Counter ssd_io_errors;    ///< non-OK statuses surfaced to the cache
};

BackendMetrics& backend_metrics() {
  static BackendMetrics* m = [] {
    auto* bm = new BackendMetrics();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    bm->retry_attempts = obs::Counter(&reg, "kdd_ssd_retry_attempts_total");
    bm->retry_exhausted = obs::Counter(&reg, "kdd_ssd_retry_exhausted_total");
    bm->ssd_io_errors = obs::Counter(&reg, "kdd_ssd_io_errors_total");
    return bm;
  }();
  return *m;
}

}  // namespace

// ---------------------------------------------------------------------------
// CacheSsd
// ---------------------------------------------------------------------------

CacheSsd::CacheSsd(std::uint64_t metadata_pages, std::uint64_t cache_pages)
    : metadata_pages_(metadata_pages), cache_pages_(cache_pages) {
  KDD_CHECK(cache_pages_ > 0);
}

CacheSsd::CacheSsd(std::uint64_t metadata_pages, std::uint64_t cache_pages,
                   SsdModel* ssd)
    : metadata_pages_(metadata_pages), cache_pages_(cache_pages), ssd_(ssd) {
  KDD_CHECK(cache_pages_ > 0);
  KDD_CHECK(ssd_ != nullptr);
  KDD_CHECK(ssd_->num_pages() >= metadata_pages_ + cache_pages_);
  scratch_ = make_page();
  FaultConfig fc;
  fc.verify_reads = true;
  fc.seed = 0xc2b2ae3d27d4eb4full;  // distinct from the per-disk RAID seeds
  fault_dev_ = std::make_unique<FaultInjectingDevice>(ssd_, fc);
}

void CacheSsd::replace_device() {
  KDD_CHECK(ssd_ != nullptr);
  KDD_LOG(Info, "cache-ssd device replaced (endurance %.3f consumed)",
          ssd_->endurance_consumed());
  ssd_->replace();
  // Checksums and latent sector errors belong to the old media.
  fault_dev_->clear_faults();
}

IoStatus CacheSsd::do_read(Lba ssd_lba, std::span<std::uint8_t> out, IoPlan* plan) {
  ++reads_;
  if (plan) plan->add(plan->next_phase(), {DeviceOp::Target::kSsd, 0, ssd_lba, IoKind::kRead});
  if (ssd_ && !out.empty()) {
    const obs::SpanScope span(obs::Stage::kDevice);
    const RetryResult r = with_retry(
        [&] { return fault_dev_->read(ssd_lba, out); }, retry_policy_);
    if (plan) plan->add_retry_delay(r.backoff_us);
    if (r.attempts > 1) {
      backend_metrics().retry_attempts.inc(r.attempts - 1);
    }
    if (r.status != IoStatus::kOk) {
      backend_metrics().ssd_io_errors.inc();
      // kFailed here is a transient that never cleared (with_retry demotes).
      if (r.status == IoStatus::kFailed) backend_metrics().retry_exhausted.inc();
      KDD_LOG(Warn, "cache-ssd read failed lba=%llu status=%d attempts=%u",
              static_cast<unsigned long long>(ssd_lba),
              static_cast<int>(r.status), r.attempts);
    }
    return r.status;
  }
  return IoStatus::kOk;
}

IoStatus CacheSsd::do_write(Lba ssd_lba, std::span<const std::uint8_t> data,
                            IoPlan* plan) {
  if (plan) plan->add(plan->next_phase(), {DeviceOp::Target::kSsd, 0, ssd_lba, IoKind::kWrite});
  if (ssd_) {
    if (scratch_.empty()) scratch_ = make_page();
    const std::span<const std::uint8_t> payload =
        data.empty() ? std::span<const std::uint8_t>(scratch_) : data;
    const obs::SpanScope span(obs::Stage::kDevice);
    const RetryResult r = with_retry(
        [&] { return fault_dev_->write(ssd_lba, payload); }, retry_policy_);
    if (plan) plan->add_retry_delay(r.backoff_us);
    if (r.attempts > 1) {
      backend_metrics().retry_attempts.inc(r.attempts - 1);
    }
    if (r.status != IoStatus::kOk) {
      backend_metrics().ssd_io_errors.inc();
      // kFailed here is a transient that never cleared (with_retry demotes).
      if (r.status == IoStatus::kFailed) backend_metrics().retry_exhausted.inc();
      KDD_LOG(Warn, "cache-ssd write failed lba=%llu status=%d attempts=%u",
              static_cast<unsigned long long>(ssd_lba),
              static_cast<int>(r.status), r.attempts);
    }
    return r.status;
  }
  return IoStatus::kOk;
}

IoStatus CacheSsd::read_data(std::uint64_t idx, std::span<std::uint8_t> out,
                             IoPlan* plan) {
  KDD_DCHECK(idx < cache_pages_);
  return do_read(metadata_pages_ + idx, out, plan);
}

IoStatus CacheSsd::write_data(std::uint64_t idx, SsdWriteKind kind,
                              std::span<const std::uint8_t> data, IoPlan* plan) {
  KDD_DCHECK(idx < cache_pages_);
  ++writes_by_kind_[static_cast<int>(kind)];
  return do_write(metadata_pages_ + idx, data, plan);
}

void CacheSsd::trim_data(std::uint64_t idx) {
  KDD_DCHECK(idx < cache_pages_);
  if (ssd_) fault_dev_->trim(metadata_pages_ + idx);
}

IoStatus CacheSsd::read_metadata(std::uint64_t slot, std::span<std::uint8_t> out,
                                 IoPlan* plan) {
  KDD_DCHECK(slot < metadata_pages_);
  return do_read(slot, out, plan);
}

IoStatus CacheSsd::write_metadata(std::uint64_t slot,
                                  std::span<const std::uint8_t> data, IoPlan* plan) {
  KDD_DCHECK(slot < metadata_pages_);
  ++writes_by_kind_[static_cast<int>(SsdWriteKind::kMetadata)];
  return do_write(slot, data, plan);
}

std::uint64_t CacheSsd::total_writes() const {
  std::uint64_t n = 0;
  for (std::uint64_t w : writes_by_kind_) n += w;
  return n;
}

void CacheSsd::export_stats(CacheStats& stats) const {
  stats.ssd_reads = reads_;
  for (int k = 0; k < kNumSsdWriteKinds; ++k) stats.ssd_writes[k] = writes_by_kind_[k];
}

// ---------------------------------------------------------------------------
// RaidBackend
// ---------------------------------------------------------------------------

RaidBackend::RaidBackend(const RaidGeometry& geo) : layout_(geo) {}

RaidBackend::RaidBackend(RaidArray* array)
    : layout_(array->geometry()), array_(array) {
  KDD_CHECK(array_ != nullptr);
}

IoStatus RaidBackend::read_page(Lba lba, std::span<std::uint8_t> out, IoPlan* plan) {
  ++disk_reads_;
  if (array_) return array_->read_page(lba, out, plan);
  if (plan) {
    const DiskAddr a = layout_.map(lba);
    plan->add(plan->next_phase(), {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kRead});
  }
  return IoStatus::kOk;
}

void RaidBackend::plan_rmw(GroupId g, Lba lba, IoPlan* plan) {
  // [read data, read P(, read Q)] -> [write data, write P(, write Q)]
  const DiskAddr a = layout_.map(lba);
  const DiskAddr pa = layout_.parity_addr(g);
  const std::size_t rd = plan->next_phase();
  plan->add(rd, {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kRead});
  plan->add(rd, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kRead});
  if (layout_.geometry().level == RaidLevel::kRaid6) {
    const DiskAddr qa = layout_.q_parity_addr(g);
    plan->add(rd, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kRead});
    plan->add(rd + 1, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
  }
  plan->add(rd + 1, {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kWrite});
  plan->add(rd + 1, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
}

IoStatus RaidBackend::write_page(Lba lba, std::span<const std::uint8_t> data,
                                 IoPlan* plan) {
  const obs::SpanScope span(obs::Stage::kRmw);
  const RaidGeometry& geo = layout_.geometry();
  const std::uint32_t parity = geo.parity_disks();
  disk_reads_ += parity ? 1 + parity : 0;  // old data + old parities
  disk_writes_ += 1 + parity;
  if (array_) {
    KDD_CHECK(!data.empty());
    return array_->write_page(lba, data, plan);
  }
  if (plan) {
    if (parity) {
      plan_rmw(layout_.group_of(lba), lba, plan);
    } else {
      const DiskAddr a = layout_.map(lba);
      plan->add(plan->next_phase(), {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kWrite});
    }
  }
  return IoStatus::kOk;
}

void RaidBackend::plan_rcw(GroupId g, Lba lba, std::span<const Page* const> members,
                           IoPlan* plan) {
  // [read the unsupplied row-mates, write data] -> [write P(, write Q)]
  const std::uint32_t target = layout_.index_in_group(lba);
  const std::size_t rd = plan->next_phase();
  for (std::uint32_t k = 0; k < members.size(); ++k) {
    if (k == target || members[k] != nullptr) continue;
    const DiskAddr m = layout_.map(layout_.group_member(g, k));
    plan->add(rd, {DeviceOp::Target::kHdd, m.disk, m.page, IoKind::kRead});
  }
  const DiskAddr a = layout_.map(lba);
  const DiskAddr pa = layout_.parity_addr(g);
  plan->add(rd, {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kWrite});
  plan->add(rd + 1, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
  if (layout_.geometry().level == RaidLevel::kRaid6) {
    const DiskAddr qa = layout_.q_parity_addr(g);
    plan->add(rd + 1, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
  }
}

IoStatus RaidBackend::write_page(Lba lba, std::span<const std::uint8_t> data,
                                 std::span<const Page* const> members, IoPlan* plan) {
  const RaidGeometry& geo = layout_.geometry();
  const std::uint32_t supplied = supplied_row_mates(layout_, lba, members);
  if (!geo.prefers_reconstruct_write(supplied)) return write_page(lba, data, plan);
  const obs::SpanScope span(obs::Stage::kRmw);
  disk_reads_ += geo.data_disks() - 1 - supplied;
  disk_writes_ += 1 + geo.parity_disks();
  if (array_) {
    KDD_CHECK(!data.empty());
    return array_->write_page(lba, data, members, plan);
  }
  if (plan) plan_rcw(layout_.group_of(lba), lba, members, plan);
  return IoStatus::kOk;
}

IoStatus RaidBackend::write_group(GroupId g, std::span<const Page> data, IoPlan* plan) {
  const RaidGeometry& geo = layout_.geometry();
  KDD_CHECK(data.size() == geo.data_disks());
  disk_writes_ += geo.data_disks() + geo.parity_disks();
  if (array_) return array_->write_group(g, data, plan);
  counter_stale_.erase(g);
  if (plan) {
    const std::size_t ph = plan->next_phase();
    for (std::uint32_t k = 0; k < geo.data_disks(); ++k) {
      const DiskAddr a = layout_.map(layout_.group_member(g, k));
      plan->add(ph, {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kWrite});
    }
    if (geo.parity_disks() > 0) {
      const DiskAddr pa = layout_.parity_addr(g);
      plan->add(ph, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
      if (geo.level == RaidLevel::kRaid6) {
        const DiskAddr qa = layout_.q_parity_addr(g);
        plan->add(ph, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
      }
    }
  }
  return IoStatus::kOk;
}

IoStatus RaidBackend::write_page_nopar(Lba lba, std::span<const std::uint8_t> data,
                                       IoPlan* plan) {
  ++disk_writes_;
  if (array_) {
    KDD_CHECK(!data.empty());
    return array_->write_page_nopar(lba, data, plan);
  }
  counter_stale_.insert(layout_.group_of(lba));
  if (plan) {
    const DiskAddr a = layout_.map(lba);
    plan->add(plan->next_phase(), {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kWrite});
  }
  return IoStatus::kOk;
}

IoStatus RaidBackend::update_parity_rmw(GroupId g, std::span<const GroupDelta> deltas,
                                        IoPlan* plan, bool finalize) {
  const obs::SpanScope span(obs::Stage::kParity);
  const std::uint32_t parity = layout_.geometry().parity_disks();
  KDD_CHECK(parity > 0);
  disk_reads_ += parity;
  disk_writes_ += parity;
  if (array_) return array_->update_parity_rmw(g, deltas, plan, finalize);
  if (finalize) counter_stale_.erase(g);
  if (plan) {
    const DiskAddr pa = layout_.parity_addr(g);
    const std::size_t rd = plan->next_phase();
    plan->add(rd, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kRead});
    plan->add(rd + 1, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
    if (layout_.geometry().level == RaidLevel::kRaid6) {
      const DiskAddr qa = layout_.q_parity_addr(g);
      plan->add(rd, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kRead});
      plan->add(rd + 1, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
    }
  }
  return IoStatus::kOk;
}

IoStatus RaidBackend::update_parity_reconstruct_cached(
    GroupId g, std::span<const Page* const> current_data, IoPlan* plan) {
  const obs::SpanScope span(obs::Stage::kParity);
  const std::uint32_t parity = layout_.geometry().parity_disks();
  KDD_CHECK(parity > 0);
  KDD_CHECK(current_data.size() == layout_.geometry().data_disks());
  const auto from_disk = static_cast<std::uint64_t>(
      std::count(current_data.begin(), current_data.end(), nullptr));
  disk_reads_ += from_disk;
  disk_writes_ += parity;
  if (array_) return array_->update_parity_reconstruct(g, current_data, plan);
  counter_stale_.erase(g);
  if (plan) {
    const std::size_t rd = plan->next_phase();
    for (std::uint32_t k = 0; k < current_data.size(); ++k) {
      if (current_data[k] != nullptr) continue;
      const DiskAddr m = layout_.map(layout_.group_member(g, k));
      plan->add(rd, {DeviceOp::Target::kHdd, m.disk, m.page, IoKind::kRead});
    }
    const DiskAddr pa = layout_.parity_addr(g);
    const std::size_t ph = from_disk > 0 ? rd + 1 : rd;
    plan->add(ph, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
    if (layout_.geometry().level == RaidLevel::kRaid6) {
      const DiskAddr qa = layout_.q_parity_addr(g);
      plan->add(ph, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
    }
  }
  return IoStatus::kOk;
}

bool RaidBackend::group_stale(GroupId g) const {
  return array_ ? array_->group_stale(g) : counter_stale_.contains(g);
}

std::uint64_t RaidBackend::stale_group_count() const {
  return array_ ? array_->stale_group_count() : counter_stale_.size();
}

}  // namespace kdd
