#include "raid/raid_array.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/page_arena.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "raid/gf256.hpp"

namespace kdd {

namespace {

struct RaidMetrics {
  obs::Counter degraded_reads;
  obs::Counter rebuild_groups;
  obs::Counter rebuild_stale_folds;
};

RaidMetrics& raid_metrics() {
  static RaidMetrics* m = [] {
    auto* rm = new RaidMetrics();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    rm->degraded_reads = obs::Counter(&reg, "kdd_degraded_reads_total");
    rm->rebuild_groups = obs::Counter(&reg, "kdd_rebuild_groups_total");
    rm->rebuild_stale_folds = obs::Counter(&reg, "kdd_rebuild_stale_folds_total");
    return rm;
  }();
  return *m;
}

// Solves for two lost data members i, j of a RAID-6 group given the partial
// sums P' = P ^ sum(known D_k) and Q' = Q ^ sum(g^k D_k):
//   D_i = (Q' ^ g^j * P') / (g^i ^ g^j),   D_j = P' ^ D_i.
void solve_two_erasures(std::uint32_t i, std::uint32_t j, const Page& p_prime,
                        const Page& q_prime, Page& di, Page& dj) {
  const std::uint8_t gi = gf256::exp(i);
  const std::uint8_t gj = gf256::exp(j);
  const std::uint8_t denom_inv = gf256::inv(static_cast<std::uint8_t>(gi ^ gj));
  di.assign(kPageSize, 0);
  gf256::mul_acc(di, gj, p_prime);
  xor_into(di, q_prime);
  gf256::scale(di, denom_inv);
  dj.resize(kPageSize);
  xor_pages3(dj, p_prime, di);
}

/// Page-level fault: the device is alive but this page's contents are gone
/// (kMediaError) or untrustworthy (kCorrupt). Both are recoverable from
/// parity; both must count as an erasure of that page.
bool page_fault(IoStatus st) {
  return st == IoStatus::kMediaError || st == IoStatus::kCorrupt;
}

}  // namespace

std::uint32_t supplied_row_mates(const RaidLayout& layout, Lba lba,
                                 std::span<const Page* const> members) {
  if (members.empty()) return 0;
  KDD_CHECK(members.size() == layout.geometry().data_disks());
  const std::uint32_t target = layout.index_in_group(lba);
  std::uint32_t supplied = 0;
  for (std::uint32_t k = 0; k < members.size(); ++k) {
    if (k != target && members[k] != nullptr) ++supplied;
  }
  return supplied;
}

RaidArray::RaidArray(const RaidGeometry& geo) : layout_(geo) {
  media_.reserve(geo.num_disks);
  disks_.reserve(geo.num_disks);
  for (std::uint32_t i = 0; i < geo.num_disks; ++i) {
    media_.push_back(std::make_unique<MemBlockDevice>(geo.disk_pages));
    FaultConfig fc;
    // Checksum-verified reads by default: the array detects silent bit rot
    // (kCorrupt) the way production arrays rely on T10-DIF / on-media ECC.
    fc.verify_reads = true;
    fc.seed = 0x9e3779b97f4a7c15ull + i;
    disks_.push_back(std::make_unique<FaultInjectingDevice>(media_.back().get(), fc));
  }
}

void RaidArray::attach_rail(const std::shared_ptr<PowerRail>& rail) {
  for (auto& d : disks_) d->attach_rail(rail);
}

IoStatus RaidArray::dev_read(std::uint32_t disk, Lba page,
                             std::span<std::uint8_t> out, IoPlan* plan) {
  const obs::SpanScope span(obs::Stage::kDevice);
  const RetryResult r = with_retry(
      [&] { return disks_[disk]->read(page, out); }, retry_policy_);
  if (plan && r.backoff_us != 0) plan->add_retry_delay(r.backoff_us);
  return r.status;
}

IoStatus RaidArray::dev_write(std::uint32_t disk, Lba page,
                              std::span<const std::uint8_t> data, IoPlan* plan) {
  const obs::SpanScope span(obs::Stage::kDevice);
  const RetryResult r = with_retry(
      [&] { return disks_[disk]->write(page, data); }, retry_policy_);
  if (plan && r.backoff_us != 0) plan->add_retry_delay(r.backoff_us);
  return r.status;
}

bool RaidArray::group_has_failed_member(GroupId g) const {
  const RaidGeometry& geo = layout_.geometry();
  const std::uint64_t row = g / geo.chunk_pages;
  for (std::uint32_t idx = 0; idx < geo.data_disks(); ++idx) {
    if (member_down(layout_.data_disk(row, idx), g)) return true;
  }
  if (geo.level != RaidLevel::kRaid0) {
    if (member_down(layout_.parity_disk(row), g)) return true;
    if (geo.level == RaidLevel::kRaid6 && member_down(layout_.q_parity_disk(row), g)) {
      return true;
    }
  }
  return false;
}

IoStatus RaidArray::read_page(Lba lba, std::span<std::uint8_t> out, IoPlan* plan) {
  const DiskAddr addr = layout_.map(lba);
  const GroupId g = layout_.group_of(lba);
  if (!member_down(addr.disk, g)) {
    if (plan) plan->add(plan->next_phase(), {DeviceOp::Target::kHdd, addr.disk, addr.page, IoKind::kRead});
    const IoStatus st = dev_read(addr.disk, addr.page, out, plan);
    if (st == IoStatus::kOk) return st;
    if (page_fault(st) && layout_.geometry().level != RaidLevel::kRaid0) {
      return read_repair(lba, out, plan);
    }
    if (!disks_[addr.disk]->failed()) return st;
    // Whole-device failure surfaced mid-read: fall through to degraded path.
  }
  // Degraded read: reconstruct from the surviving members of the group.
  // A stale group's parity cannot vouch for lost data — reconstructing from
  // it would fabricate plausible-but-wrong contents. Fail cleanly; the cache
  // layer folds the pending deltas and retries (delta + surviving-stripe
  // reconstruction).
  if (stale_groups_.contains(g)) return IoStatus::kFailed;
  ++degraded_reads_;
  raid_metrics().degraded_reads.inc();
  if (plan) {
    const std::size_t phase = plan->next_phase();
    const RaidGeometry& geo = layout_.geometry();
    const std::uint64_t row = g / geo.chunk_pages;
    const Lba page = row * geo.chunk_pages + g % geo.chunk_pages;
    for (std::uint32_t d = 0; d < geo.num_disks; ++d) {
      if (!member_down(d, g)) {
        plan->add(phase, {DeviceOp::Target::kHdd, d, page, IoKind::kRead});
      }
    }
  }
  return reconstruct_data(g, layout_.index_in_group(lba), out);
}

IoStatus RaidArray::read_repair(Lba lba, std::span<std::uint8_t> out, IoPlan* plan) {
  const GroupId g = layout_.group_of(lba);
  // A stale group's parity cannot vouch for its data: reconstructing from it
  // would fabricate plausible-but-wrong contents. Fail cleanly instead —
  // never silent corruption.
  if (stale_groups_.contains(g)) return IoStatus::kFailed;
  const std::uint32_t idx = layout_.index_in_group(lba);
  if (plan) {
    const std::size_t phase = plan->next_phase();
    const RaidGeometry& geo = layout_.geometry();
    const std::uint64_t row = g / geo.chunk_pages;
    const Lba page = row * geo.chunk_pages + g % geo.chunk_pages;
    for (std::uint32_t d = 0; d < geo.num_disks; ++d) {
      const DiskAddr addr = layout_.map(lba);
      if (d != addr.disk && !member_down(d, g)) {
        plan->add(phase, {DeviceOp::Target::kHdd, d, page, IoKind::kRead});
      }
    }
  }
  if (reconstruct_data(g, idx, out) != IoStatus::kOk) return IoStatus::kFailed;
  // Write-back heals the latent sector error (and refreshes the checksum).
  const DiskAddr addr = layout_.map(lba);
  if (dev_write(addr.disk, addr.page, out, plan) == IoStatus::kOk) {
    ++read_repairs_;
    if (plan) plan->add(plan->next_phase(), {DeviceOp::Target::kHdd, addr.disk, addr.page, IoKind::kWrite});
  }
  // The data in `out` is valid regardless of the write-back outcome.
  return IoStatus::kOk;
}

IoStatus RaidArray::reconstruct_data(GroupId g, std::uint32_t idx,
                                     std::span<std::uint8_t> out) {
  const RaidGeometry& geo = layout_.geometry();
  if (geo.level == RaidLevel::kRaid0) return IoStatus::kFailed;
  const std::uint32_t dd = geo.data_disks();

  // Gather survivors. A page-level fault on a survivor is one more erasure.
  // All temporaries borrow from the thread-local page arena (no allocation
  // on the warm path).
  std::vector<std::uint32_t> lost_data;
  ScratchPage p_prime_sp(ScratchPage::kZeroed);  // running XOR of known data
  ScratchPage q_prime_sp(ScratchPage::kZeroed);  // running XOR of g^k * known data
  ScratchPage buf_sp;
  Page& p_prime = *p_prime_sp;
  Page& q_prime = *q_prime_sp;
  Page& buf = *buf_sp;
  for (std::uint32_t k = 0; k < dd; ++k) {
    if (k == idx) continue;
    const DiskAddr a = layout_.map(layout_.group_member(g, k));
    if (member_down(a.disk, g)) {
      lost_data.push_back(k);
      continue;
    }
    const IoStatus st = dev_read(a.disk, a.page, buf);
    if (st != IoStatus::kOk) {
      if (!page_fault(st)) return IoStatus::kFailed;
      lost_data.push_back(k);
      continue;
    }
    xor_into(p_prime, buf);
    if (geo.level == RaidLevel::kRaid6) gf256::mul_acc(q_prime, gf256::exp(k), buf);
  }
  const DiskAddr pa = layout_.parity_addr(g);
  const bool p_alive = !member_down(pa.disk, g);
  const bool q_alive = geo.level == RaidLevel::kRaid6 &&
                       !member_down(layout_.q_parity_addr(g).disk, g);

  if (lost_data.empty()) {
    // Single data erasure.
    if (p_alive) {
      ScratchPage p;
      const IoStatus st = dev_read(pa.disk, pa.page, *p);
      if (st == IoStatus::kOk) {
        // out = P ^ P' directly into the caller's buffer (fused kernel).
        xor_pages3(out, *p, p_prime);
        return IoStatus::kOk;
      }
      if (!page_fault(st)) return IoStatus::kFailed;
      // P itself is unreadable: fall through to the Q path.
    }
    if (q_alive) {
      const DiskAddr qa = layout_.q_parity_addr(g);
      ScratchPage q;
      if (dev_read(qa.disk, qa.page, *q) != IoStatus::kOk) return IoStatus::kFailed;
      xor_into(*q, q_prime);  // q = g^idx * D_idx
      gf256::scale(*q, gf256::inv(gf256::exp(idx)));
      std::copy(q->begin(), q->end(), out.begin());
      return IoStatus::kOk;
    }
    return IoStatus::kFailed;
  }
  if (lost_data.size() == 1 && geo.level == RaidLevel::kRaid6 && p_alive && q_alive) {
    // Two data erasures (idx plus one more): need both parities.
    const DiskAddr qa = layout_.q_parity_addr(g);
    ScratchPage p;
    ScratchPage q;
    if (dev_read(pa.disk, pa.page, *p) != IoStatus::kOk) return IoStatus::kFailed;
    if (dev_read(qa.disk, qa.page, *q) != IoStatus::kOk) return IoStatus::kFailed;
    xor_into(*p, p_prime);
    xor_into(*q, q_prime);
    ScratchPage di;
    ScratchPage dj;
    solve_two_erasures(idx, lost_data[0], *p, *q, *di, *dj);
    std::copy(di->begin(), di->end(), out.begin());
    return IoStatus::kOk;
  }
  obs::flight_note_and_dump(obs::FlightKind::kDoubleFault, "reconstruct_read",
                            static_cast<std::int64_t>(g),
                            static_cast<std::int64_t>(lost_data.size()));
  return IoStatus::kFailed;  // beyond the configured fault tolerance
}

void RaidArray::compute_parity(std::span<const Page> data, Page& p, Page* q) const {
  p.assign(kPageSize, 0);
  if (q) q->assign(kPageSize, 0);
  for (std::uint32_t k = 0; k < data.size(); ++k) {
    xor_into(p, data[k]);
    if (q) gf256::mul_acc(*q, gf256::exp(k), data[k]);
  }
}

IoStatus RaidArray::write_page(Lba lba, std::span<const std::uint8_t> data,
                               IoPlan* plan) {
  return write_page(lba, data, {}, plan);
}

IoStatus RaidArray::write_page(Lba lba, std::span<const std::uint8_t> data,
                               std::span<const Page* const> members, IoPlan* plan) {
  const RaidGeometry& geo = layout_.geometry();
  if (geo.level == RaidLevel::kRaid0) {
    const DiskAddr addr = layout_.map(lba);
    if (plan) plan->add(plan->next_phase(), {DeviceOp::Target::kHdd, addr.disk, addr.page, IoKind::kWrite});
    return dev_write(addr.disk, addr.page, data, plan);
  }
  if (group_has_failed_member(layout_.group_of(lba))) {
    return write_page_general(lba, data, plan);
  }
  if (geo.prefers_reconstruct_write(supplied_row_mates(layout_, lba, members))) {
    return write_page_rcw(lba, data, members, plan);
  }
  return write_page_rmw(lba, data, plan);
}

IoStatus RaidArray::write_page_rmw(Lba lba, std::span<const std::uint8_t> data,
                                   IoPlan* plan) {
  // Read-modify-write: [read old data, read P(, read Q)] ->
  // [write data, write P(, write Q)]. RMW buffers are reused via the
  // thread-local arena: the steady-state small-write path performs no
  // allocations.
  const RaidGeometry& geo = layout_.geometry();
  const bool raid6 = geo.level == RaidLevel::kRaid6;
  const DiskAddr addr = layout_.map(lba);
  const GroupId g = layout_.group_of(lba);
  const DiskAddr pa = layout_.parity_addr(g);
  const DiskAddr qa = raid6 ? layout_.q_parity_addr(g) : DiskAddr{};
  ScratchPage old_data_sp;
  ScratchPage parity_sp;
  ScratchPage q_sp;
  Page& old_data = *old_data_sp;
  Page& parity = *parity_sp;
  Page& q = *q_sp;
  {
    // Every read lands before the first write, so a failed read leaves the
    // group exactly as it was. A page-level fault on any of them makes the
    // delta uncomputable; the general path recomputes parity from the full
    // group instead (and its data write heals the faulty page). Only safe
    // when the group is not stale: write_page_general clears staleness.
    const auto read_failed = [&](IoStatus st) {
      if (page_fault(st) && !group_stale(g)) return write_page_general(lba, data, plan);
      return IoStatus::kFailed;
    };
    const IoStatus rd = dev_read(addr.disk, addr.page, old_data, plan);
    if (rd != IoStatus::kOk) return read_failed(rd);
    const IoStatus rp = dev_read(pa.disk, pa.page, parity, plan);
    if (rp != IoStatus::kOk) return read_failed(rp);
    if (raid6) {
      const IoStatus rq = dev_read(qa.disk, qa.page, q, plan);
      if (rq != IoStatus::kOk) return read_failed(rq);
    }
  }
  const std::size_t read_phase = plan ? plan->next_phase() : 0;
  const std::size_t write_phase = read_phase + 1;
  if (plan) {
    plan->add(read_phase, {DeviceOp::Target::kHdd, addr.disk, addr.page, IoKind::kRead});
    plan->add(read_phase, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kRead});
    if (raid6) plan->add(read_phase, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kRead});
  }
  ScratchPage delta_sp;
  Page& delta = *delta_sp;
  xor_pages3(delta, data, old_data);  // fused: no copy-then-xor
  xor_into(parity, delta);
  if (raid6) gf256::mul_acc(q, gf256::exp(layout_.index_in_group(lba)), delta);

  if (dev_write(addr.disk, addr.page, data, plan) != IoStatus::kOk) return IoStatus::kFailed;
  if (dev_write(pa.disk, pa.page, parity, plan) != IoStatus::kOk) return IoStatus::kFailed;
  if (plan) {
    plan->add(write_phase, {DeviceOp::Target::kHdd, addr.disk, addr.page, IoKind::kWrite});
    plan->add(write_phase, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
  }
  if (raid6) {
    if (dev_write(qa.disk, qa.page, q, plan) != IoStatus::kOk) return IoStatus::kFailed;
    if (plan) plan->add(write_phase, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
  }
  return IoStatus::kOk;
}

IoStatus RaidArray::write_page_rcw(Lba lba, std::span<const std::uint8_t> data,
                                   std::span<const Page* const> members,
                                   IoPlan* plan) {
  // Reconstruct-write: parity from scratch over the caller's images, the
  // rest of the row read from disk, and the new data. [read the missing
  // row-mates, write data] -> [write P(, write Q)].
  const RaidGeometry& geo = layout_.geometry();
  const bool raid6 = geo.level == RaidLevel::kRaid6;
  const std::uint32_t dd = geo.data_disks();
  const GroupId g = layout_.group_of(lba);
  const std::uint32_t target = layout_.index_in_group(lba);
  ScratchPage p_sp(ScratchPage::kZeroed);
  ScratchPage q_sp(raid6 ? ScratchPage::kZeroed : ScratchPage::kUninit);
  ScratchPage buf_sp;
  Page& p = *p_sp;
  Page& q = *q_sp;
  Page& buf = *buf_sp;
  const auto fold = [&](std::uint32_t k, std::span<const std::uint8_t> member) {
    xor_into(p, member);
    if (raid6) gf256::mul_acc(q, gf256::exp(k), member);
  };
  for (std::uint32_t k = 0; k < dd; ++k) {
    if (k == target) {
      fold(k, data);
    } else if (members[k] != nullptr) {
      fold(k, *members[k]);
    } else {
      const DiskAddr a = layout_.map(layout_.group_member(g, k));
      const IoStatus st = dev_read(a.disk, a.page, buf, plan);
      if (st != IoStatus::kOk) {
        // Nothing is written yet, and RMW never reads this row-mate.
        if (page_fault(st)) return write_page_rmw(lba, data, plan);
        return IoStatus::kFailed;
      }
      fold(k, buf);
    }
  }
  const std::size_t read_phase = plan ? plan->next_phase() : 0;
  const std::size_t write_phase = read_phase + 1;
  if (plan) {
    for (std::uint32_t k = 0; k < dd; ++k) {
      if (k == target || members[k] != nullptr) continue;
      const DiskAddr a = layout_.map(layout_.group_member(g, k));
      plan->add(read_phase, {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kRead});
    }
  }
  const DiskAddr addr = layout_.map(lba);
  if (dev_write(addr.disk, addr.page, data, plan) != IoStatus::kOk) return IoStatus::kFailed;
  if (plan) plan->add(read_phase, {DeviceOp::Target::kHdd, addr.disk, addr.page, IoKind::kWrite});
  const DiskAddr pa = layout_.parity_addr(g);
  if (dev_write(pa.disk, pa.page, p, plan) != IoStatus::kOk) return IoStatus::kFailed;
  if (plan) plan->add(write_phase, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
  if (raid6) {
    const DiskAddr qa = layout_.q_parity_addr(g);
    if (dev_write(qa.disk, qa.page, q, plan) != IoStatus::kOk) return IoStatus::kFailed;
    if (plan) plan->add(write_phase, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
  }
  return IoStatus::kOk;
}

IoStatus RaidArray::write_page_general(Lba lba, std::span<const std::uint8_t> data,
                                       IoPlan* plan) {
  // Degraded path: gather the full group (reconstructing lost members),
  // substitute the new data, recompute parity and write what is writable.
  const RaidGeometry& geo = layout_.geometry();
  const GroupId g = layout_.group_of(lba);
  const std::uint32_t dd = geo.data_disks();
  const std::uint32_t target = layout_.index_in_group(lba);

  // A general write collapses parity to the XOR of the group's current
  // on-disk contents and erases the stale marker. On a stale group that
  // silently folds every delta the cache still counts as pending — a later
  // cache-side fold would then apply them a second time and skew parity.
  // Refuse instead: the cache folds its deltas first and retries.
  if (stale_groups_.contains(g)) return IoStatus::kFailed;

  ScratchPages members_sp(dd);
  std::vector<Page>& members = members_sp.vec();
  const std::size_t read_phase = plan ? plan->next_phase() : 0;
  for (std::uint32_t k = 0; k < dd; ++k) {
    if (k == target) continue;
    const Lba member_lba = layout_.group_member(g, k);
    const DiskAddr a = layout_.map(member_lba);
    if (!member_down(a.disk, g)) {
      const IoStatus st = dev_read(a.disk, a.page, members[k], plan);
      if (st == IoStatus::kOk) {
        if (plan) plan->add(read_phase, {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kRead});
        continue;
      }
      if (!page_fault(st)) return IoStatus::kFailed;
      // Fall through: reconstruct the faulty member like a lost one.
    }
    // Reconstructing a lost member of a *stale* group would fold fabricated
    // contents into the freshly computed parity and then erase the staleness
    // marker — laundering corruption. Refuse; the cache folds its deltas
    // first and retries.
    if (stale_groups_.contains(g)) return IoStatus::kFailed;
    if (reconstruct_data(g, k, members[k]) != IoStatus::kOk) {
      return IoStatus::kFailed;
    }
  }
  members[target].assign(data.begin(), data.end());

  ScratchPage p_sp;
  ScratchPage q_sp;
  Page& p = *p_sp;
  Page& q = *q_sp;
  compute_parity(members, p, geo.level == RaidLevel::kRaid6 ? &q : nullptr);

  const std::size_t write_phase = plan ? plan->next_phase() : 0;
  const DiskAddr addr = layout_.map(lba);
  if (!member_down(addr.disk, g)) {
    if (dev_write(addr.disk, addr.page, data, plan) != IoStatus::kOk) return IoStatus::kFailed;
    if (plan) plan->add(write_phase, {DeviceOp::Target::kHdd, addr.disk, addr.page, IoKind::kWrite});
  }
  const DiskAddr pa = layout_.parity_addr(g);
  if (!member_down(pa.disk, g)) {
    if (dev_write(pa.disk, pa.page, p, plan) != IoStatus::kOk) return IoStatus::kFailed;
    if (plan) plan->add(write_phase, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
  }
  if (geo.level == RaidLevel::kRaid6) {
    const DiskAddr qa = layout_.q_parity_addr(g);
    if (!member_down(qa.disk, g)) {
      if (dev_write(qa.disk, qa.page, q, plan) != IoStatus::kOk) return IoStatus::kFailed;
      if (plan) plan->add(write_phase, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
    }
  }
  // Parity was recomputed from the group's current on-disk contents.
  stale_groups_.erase(g);
  return IoStatus::kOk;
}

IoStatus RaidArray::write_group(GroupId g, std::span<const Page> data, IoPlan* plan) {
  const RaidGeometry& geo = layout_.geometry();
  KDD_CHECK(data.size() == geo.data_disks());
  ScratchPage p_sp;
  ScratchPage q_sp;
  Page& p = *p_sp;
  Page& q = *q_sp;
  if (geo.level != RaidLevel::kRaid0) {
    compute_parity(data, p, geo.level == RaidLevel::kRaid6 ? &q : nullptr);
  }
  const std::size_t phase = plan ? plan->next_phase() : 0;
  for (std::uint32_t k = 0; k < data.size(); ++k) {
    const DiskAddr a = layout_.map(layout_.group_member(g, k));
    if (member_down(a.disk, g)) continue;
    if (dev_write(a.disk, a.page, data[k], plan) != IoStatus::kOk) return IoStatus::kFailed;
    if (plan) plan->add(phase, {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kWrite});
  }
  if (geo.level != RaidLevel::kRaid0) {
    const DiskAddr pa = layout_.parity_addr(g);
    if (!member_down(pa.disk, g)) {
      if (dev_write(pa.disk, pa.page, p, plan) != IoStatus::kOk) return IoStatus::kFailed;
      if (plan) plan->add(phase, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
    }
    if (geo.level == RaidLevel::kRaid6) {
      const DiskAddr qa = layout_.q_parity_addr(g);
      if (!member_down(qa.disk, g)) {
        if (dev_write(qa.disk, qa.page, q, plan) != IoStatus::kOk) return IoStatus::kFailed;
        if (plan) plan->add(phase, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
      }
    }
  }
  stale_groups_.erase(g);
  return IoStatus::kOk;
}

IoStatus RaidArray::write_page_nopar(Lba lba, std::span<const std::uint8_t> data,
                                     IoPlan* plan) {
  const RaidGeometry& geo = layout_.geometry();
  KDD_CHECK(geo.level != RaidLevel::kRaid0);
  const DiskAddr addr = layout_.map(lba);
  const GroupId g = layout_.group_of(lba);
  if (member_down(addr.disk, g)) {
    // Deferring parity is only safe when the data write itself lands; the
    // caller falls back to a conventional (degraded-capable) write.
    return IoStatus::kFailed;
  }
  if (dev_write(addr.disk, addr.page, data, plan) != IoStatus::kOk) return IoStatus::kFailed;
  if (plan) plan->add(plan->next_phase(), {DeviceOp::Target::kHdd, addr.disk, addr.page, IoKind::kWrite});
  stale_groups_.insert(g);
  return IoStatus::kOk;
}

IoStatus RaidArray::update_parity_rmw(GroupId g, std::span<const GroupDelta> deltas,
                                      IoPlan* plan, bool finalize) {
  const RaidGeometry& geo = layout_.geometry();
  KDD_CHECK(geo.level != RaidLevel::kRaid0);
  const DiskAddr pa = layout_.parity_addr(g);
  const bool p_live = !member_down(pa.disk, g);
  const bool raid6 = geo.level == RaidLevel::kRaid6;
  const DiskAddr qa = raid6 ? layout_.q_parity_addr(g) : DiskAddr{};
  const bool q_live = raid6 && !member_down(qa.disk, g);
  ScratchPage p_sp;
  ScratchPage q_sp;
  Page& p = *p_sp;
  Page& q = *q_sp;
  // Both parities are read before either is rewritten, so a failed read
  // leaves P and Q agreeing with each other. A page fault on a stale parity
  // read is surfaced to the caller (kMediaError/kCorrupt): an RMW cannot
  // proceed without the old parity, but a reconstruct-style update (which
  // the caller owns the data for) still can.
  if (p_live) {
    const IoStatus rp = dev_read(pa.disk, pa.page, p, plan);
    if (rp != IoStatus::kOk) return rp;
  }
  if (q_live) {
    const IoStatus rq = dev_read(qa.disk, qa.page, q, plan);
    if (rq != IoStatus::kOk) return rq;
  }
  const std::size_t read_phase = plan ? plan->next_phase() : 0;
  const std::size_t write_phase = read_phase + 1;
  if (p_live) {
    for (const GroupDelta& d : deltas) xor_into(p, *d.xor_diff);
    if (dev_write(pa.disk, pa.page, p, plan) != IoStatus::kOk) return IoStatus::kFailed;
    if (plan) {
      plan->add(read_phase, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kRead});
      plan->add(write_phase, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
    }
  }
  if (q_live) {
    for (const GroupDelta& d : deltas) gf256::mul_acc(q, gf256::exp(d.index), *d.xor_diff);
    if (dev_write(qa.disk, qa.page, q, plan) != IoStatus::kOk) return IoStatus::kFailed;
    if (plan) {
      plan->add(read_phase, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kRead});
      plan->add(write_phase, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
    }
  }
  if (finalize) stale_groups_.erase(g);
  return IoStatus::kOk;
}

IoStatus RaidArray::update_parity_reconstruct(GroupId g,
                                              std::span<const Page* const> current_data,
                                              IoPlan* plan) {
  const RaidGeometry& geo = layout_.geometry();
  KDD_CHECK(geo.level != RaidLevel::kRaid0);
  const std::uint32_t dd = geo.data_disks();
  KDD_CHECK(current_data.size() == dd);

  ScratchPages members_sp(dd);
  std::vector<Page>& members = members_sp.vec();
  const std::size_t read_phase = plan ? plan->next_phase() : 0;
  bool any_read = false;
  for (std::uint32_t k = 0; k < dd; ++k) {
    if (current_data[k] != nullptr) {
      members[k] = *current_data[k];
      continue;
    }
    const DiskAddr a = layout_.map(layout_.group_member(g, k));
    if (member_down(a.disk, g)) {
      // Same fabrication guard as write_page_general: a lost member of a
      // stale group cannot be reconstructed from the stale parity. The
      // caller must supply the member's current contents (cache-resident
      // image) or fold its deltas first.
      if (stale_groups_.contains(g)) return IoStatus::kFailed;
      if (reconstruct_data(g, k, members[k]) != IoStatus::kOk) return IoStatus::kFailed;
    } else {
      const IoStatus st = dev_read(a.disk, a.page, members[k], plan);
      if (st == IoStatus::kOk) {
        if (plan) plan->add(read_phase, {DeviceOp::Target::kHdd, a.disk, a.page, IoKind::kRead});
      } else if (page_fault(st)) {
        // Recover the member from its peers; write-back heals the page so
        // the recomputed parity matches what subsequent reads will see.
        if (reconstruct_data(g, k, members[k]) != IoStatus::kOk) return IoStatus::kFailed;
        if (dev_write(a.disk, a.page, members[k], plan) != IoStatus::kOk) {
          return IoStatus::kFailed;
        }
        ++read_repairs_;
      } else {
        return IoStatus::kFailed;
      }
    }
    any_read = true;
  }
  ScratchPage p_sp;
  ScratchPage q_sp;
  Page& p = *p_sp;
  Page& q = *q_sp;
  compute_parity(members, p, geo.level == RaidLevel::kRaid6 ? &q : nullptr);

  const std::size_t write_phase = plan ? (any_read ? plan->next_phase() : read_phase) : 0;
  const DiskAddr pa = layout_.parity_addr(g);
  if (!member_down(pa.disk, g)) {
    if (dev_write(pa.disk, pa.page, p, plan) != IoStatus::kOk) return IoStatus::kFailed;
    if (plan) plan->add(write_phase, {DeviceOp::Target::kHdd, pa.disk, pa.page, IoKind::kWrite});
  }
  if (geo.level == RaidLevel::kRaid6) {
    const DiskAddr qa = layout_.q_parity_addr(g);
    if (!member_down(qa.disk, g)) {
      if (dev_write(qa.disk, qa.page, q, plan) != IoStatus::kOk) return IoStatus::kFailed;
      if (plan) plan->add(write_phase, {DeviceOp::Target::kHdd, qa.disk, qa.page, IoKind::kWrite});
    }
  }
  stale_groups_.erase(g);
  return IoStatus::kOk;
}

IoStatus RaidArray::resync_group(GroupId g, IoPlan* plan) {
  std::vector<const Page*> none(layout_.geometry().data_disks(), nullptr);
  return update_parity_reconstruct(g, none, plan);
}

std::uint64_t RaidArray::resync_all_stale() {
  const std::vector<GroupId> groups = stale_groups();
  std::uint64_t n = 0;
  for (GroupId g : groups) {
    // A group that cannot be resynced (e.g. an unrecoverable double fault)
    // stays stale rather than crashing the whole pass.
    if (resync_group(g) == IoStatus::kOk) ++n;
  }
  return n;
}

std::vector<GroupId> RaidArray::stale_groups() const {
  std::vector<GroupId> out(stale_groups_.begin(), stale_groups_.end());
  std::sort(out.begin(), out.end());
  return out;
}

void RaidArray::fail_disk(std::uint32_t d) {
  KDD_CHECK(d < disks_.size());
  disks_[d]->fail();
  if (d == rebuilding_disk_) {
    // The replacement disk itself died mid-rebuild: abandon the cursor; a
    // fresh spare restarts the rebuild from group 0.
    rebuilding_disk_ = kNoRebuild;
    rebuild_cursor_ = 0;
  }
}

std::uint32_t RaidArray::failed_disk_count() const {
  std::uint32_t n = 0;
  for (const auto& d : disks_) {
    if (d->failed()) ++n;
  }
  return n;
}

void RaidArray::rebuild_begin(std::uint32_t d) {
  const RaidGeometry& geo = layout_.geometry();
  KDD_CHECK(geo.level != RaidLevel::kRaid0);
  KDD_CHECK(d < disks_.size());
  KDD_CHECK(disks_[d]->failed());
  KDD_CHECK(!rebuild_active());
  // Drain deferred parity state held outside the array (parity log) while the
  // disk is still marked failed — a rebuild against a stale log would
  // reconstruct from parity that is missing logged updates.
  if (pre_rebuild_hook_) pre_rebuild_hook_(d);
  media_[d]->replace();
  // The media behind the decorator was swapped: stale checksums and latent
  // sector errors belong to the old platters.
  disks_[d]->clear_faults();
  last_rebuild_lost_.clear();
  rebuilding_disk_ = d;
  rebuild_cursor_ = 0;
  rebuild_stale_folds_ = 0;
}

void RaidArray::rebuild_resume(std::uint32_t d, GroupId cursor) {
  const RaidGeometry& geo = layout_.geometry();
  KDD_CHECK(geo.level != RaidLevel::kRaid0);
  KDD_CHECK(d < disks_.size());
  KDD_CHECK(!disks_[d]->failed());  // media already replaced by the interrupted run
  KDD_CHECK(!rebuild_active());
  KDD_CHECK(cursor <= geo.num_groups());
  if (pre_rebuild_hook_) pre_rebuild_hook_(d);
  last_rebuild_lost_.clear();
  rebuilding_disk_ = d;
  rebuild_cursor_ = cursor;
  rebuild_stale_folds_ = 0;
}

void RaidArray::rebuild_finish() {
  KDD_CHECK(rebuild_active());
  KDD_CHECK(rebuild_cursor_ >= layout_.geometry().num_groups());
  rebuilding_disk_ = kNoRebuild;
  rebuild_cursor_ = 0;
}

void RaidArray::rebuild_abandon() {
  rebuilding_disk_ = kNoRebuild;
  rebuild_cursor_ = 0;
}

bool RaidArray::rebuild_group(GroupId g, IoPlan* plan) {
  const RaidGeometry& geo = layout_.geometry();
  const std::uint32_t d = rebuilding_disk_;
  const std::uint64_t row = g / geo.chunk_pages;
  const Lba page = row * geo.chunk_pages + g % geo.chunk_pages;
  const bool was_stale = stale_groups_.contains(g);
  if (layout_.parity_disk(row) == d ||
      (geo.level == RaidLevel::kRaid6 && layout_.q_parity_disk(row) == d)) {
    // Parity page: recompute from data — result reflects current data, so
    // any pending staleness is resolved for this group (P case).
    const bool is_q = layout_.parity_disk(row) != d;
    ScratchPages members_sp(geo.data_disks());
    std::vector<Page>& members = members_sp.vec();
    bool ok = true;
    for (std::uint32_t k = 0; k < geo.data_disks(); ++k) {
      const DiskAddr a = layout_.map(layout_.group_member(g, k));
      if (dev_read(a.disk, a.page, members[k], plan) != IoStatus::kOk) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      if (!disks_[d]->powered()) return false;  // power cut, not data loss
      // Double fault: this group's parity cannot be rebuilt now. Mark the
      // page unreadable so scrubs/reads see a clean error, and report it.
      last_rebuild_lost_.push_back(g);
      disks_[d]->inject_media_error(page);
      return true;
    }
    ScratchPage p_sp;
    ScratchPage q_sp;
    Page& p = *p_sp;
    Page& q = *q_sp;
    compute_parity(members, p, geo.level == RaidLevel::kRaid6 ? &q : nullptr);
    if (dev_write(d, page, is_q ? q : p, plan) != IoStatus::kOk &&
        !disks_[d]->powered()) {
      return false;
    }
    // Recomputing parity from current data RESOLVES any pending staleness
    // for the P case — it is not a stale fold (no data was fabricated).
    if (!is_q) stale_groups_.erase(g);
    return true;
  }
  // Data page: reconstruct from the surviving members + parity. If the
  // group's parity is stale the reconstructed contents are wrong — this is
  // the vulnerability window the paper describes; the online engine's
  // force-destage barrier (and KDD's pre-rebuild flush) keeps this zero.
  std::uint32_t idx = 0;
  bool found = false;
  for (std::uint32_t k = 0; k < geo.data_disks(); ++k) {
    if (layout_.data_disk(row, k) == d) {
      idx = k;
      found = true;
      break;
    }
  }
  KDD_CHECK(found);
  ScratchPage buf;
  if (reconstruct_data(g, idx, *buf) == IoStatus::kOk) {
    if (dev_write(d, page, *buf, plan) != IoStatus::kOk && !disks_[d]->powered()) {
      return false;
    }
  } else {
    if (!disks_[d]->powered()) return false;  // power cut, not data loss
    // Double fault (e.g. a latent sector error on a survivor): exactly this
    // stripe is lost. Reads of the page will fail cleanly — and if the
    // survivor's fault later heals, a read-repair can still recover it.
    last_rebuild_lost_.push_back(g);
    disks_[d]->inject_media_error(page);
  }
  if (was_stale) {
    ++rebuild_stale_folds_;
    raid_metrics().rebuild_stale_folds.inc();
  }
  return true;
}

std::uint64_t RaidArray::rebuild_step(std::uint64_t max_groups, IoPlan* plan) {
  KDD_CHECK(rebuild_active());
  const RaidGeometry& geo = layout_.geometry();
  const GroupId end =
      std::min<GroupId>(geo.num_groups(), rebuild_cursor_ + max_groups);
  std::uint64_t done = 0;
  while (rebuild_cursor_ < end) {
    if (!disks_[rebuilding_disk_]->powered()) break;
    if (!rebuild_group(rebuild_cursor_, plan)) break;
    ++rebuild_cursor_;
    ++done;
  }
  if (done != 0) raid_metrics().rebuild_groups.inc(done);
  return done;
}

std::uint64_t RaidArray::rebuild_disk(std::uint32_t d) {
  // Stop-the-world flavour, reimplemented on the incremental engine: one
  // begin, one maximal step, one finish. Return value and double-fault
  // semantics are unchanged.
  rebuild_begin(d);
  const std::uint64_t total = layout_.geometry().num_groups();
  while (rebuild_cursor_ < total) {
    if (rebuild_step(total) == 0) break;  // only a power cut stops progress
  }
  const std::uint64_t stale_folds = rebuild_stale_folds_;
  if (rebuild_cursor_ >= total) {
    rebuild_finish();
  }
  // else: the rail dropped mid-rebuild; the cursor stays parked for
  // rebuild_resume after power restore.
  return stale_folds;
}

std::vector<GroupId> RaidArray::scrub() const {
  return scrub_range(0, layout_.geometry().num_groups());
}

std::vector<GroupId> RaidArray::scrub_range(GroupId begin, GroupId end) const {
  const RaidGeometry& geo = layout_.geometry();
  KDD_CHECK(geo.level != RaidLevel::kRaid0);
  KDD_CHECK(failed_disk_count() == 0);
  // A rebuilding disk's region beyond the cursor is garbage by definition;
  // comparing raw media there would flag every group. Scrub resumes once the
  // rebuild completes (the scheduler pauses itself while degraded).
  KDD_CHECK(!rebuild_active());
  end = std::min<GroupId>(end, geo.num_groups());
  std::vector<GroupId> bad;
  ScratchPage p_sp(ScratchPage::kZeroed);
  ScratchPage q_sp(ScratchPage::kZeroed);
  Page& p = *p_sp;
  Page& q = *q_sp;
  for (GroupId g = begin; g < end; ++g) {
    p.assign(kPageSize, 0);
    q.assign(kPageSize, 0);
    for (std::uint32_t k = 0; k < geo.data_disks(); ++k) {
      const DiskAddr a = layout_.map(layout_.group_member(g, k));
      const auto raw = media_[a.disk]->raw_page(a.page);
      xor_into(p, raw);
      if (geo.level == RaidLevel::kRaid6) gf256::mul_acc(q, gf256::exp(k), raw);
    }
    const DiskAddr pa = layout_.parity_addr(g);
    bool ok = std::equal(p.begin(), p.end(), media_[pa.disk]->raw_page(pa.page).begin());
    if (ok && geo.level == RaidLevel::kRaid6) {
      const DiskAddr qa = layout_.q_parity_addr(g);
      ok = std::equal(q.begin(), q.end(), media_[qa.disk]->raw_page(qa.page).begin());
    }
    if (!ok) bad.push_back(g);
  }
  return bad;
}

bool RaidArray::repair_group(GroupId g) {
  const RaidGeometry& geo = layout_.geometry();
  // Tier 0 — stale (deferred-parity) group: the data is authoritative by the
  // KDD contract; recompute parity from it. Locating "the corrupt page" via
  // parity would wrongly blame (and clobber) legitimately newer data.
  if (stale_groups_.contains(g)) return resync_group(g) == IoStatus::kOk;

  const std::uint32_t dd = geo.data_disks();
  const DiskAddr pa = layout_.parity_addr(g);

  // Tier 1 — ask the devices: checksum-verified reads localise the rot.
  std::vector<std::uint32_t> bad_data;
  bool p_bad = false;
  bool q_bad = false;
  ScratchPage buf_sp;
  Page& buf = *buf_sp;
  for (std::uint32_t k = 0; k < dd; ++k) {
    const DiskAddr a = layout_.map(layout_.group_member(g, k));
    const IoStatus st = dev_read(a.disk, a.page, buf);
    if (page_fault(st)) {
      bad_data.push_back(k);
    } else if (st != IoStatus::kOk) {
      return false;
    }
  }
  {
    const IoStatus st = dev_read(pa.disk, pa.page, buf);
    if (page_fault(st)) p_bad = true;
    else if (st != IoStatus::kOk) return false;
  }
  if (geo.level == RaidLevel::kRaid6) {
    const DiskAddr qa = layout_.q_parity_addr(g);
    const IoStatus st = dev_read(qa.disk, qa.page, buf);
    if (page_fault(st)) q_bad = true;
    else if (st != IoStatus::kOk) return false;
  }
  if (!bad_data.empty() || p_bad || q_bad) {
    for (const std::uint32_t k : bad_data) {
      ScratchPage fix;
      if (reconstruct_data(g, k, *fix) != IoStatus::kOk) return false;
      const DiskAddr a = layout_.map(layout_.group_member(g, k));
      if (dev_write(a.disk, a.page, *fix) != IoStatus::kOk) return false;
      ++read_repairs_;
    }
    // Recompute parity from the (now healed) data; this rewrites P and Q,
    // curing p_bad/q_bad as a side effect.
    return resync_group(g) == IoStatus::kOk;
  }

  // Tier 2 — RAID-6 syndrome location: even with no device-level detection,
  // P and Q together pinpoint a single silently-rotted page. With error e on
  // data member z: P_syn = e and Q_syn = g^z * e; P-only => P rotted;
  // Q-only => Q rotted.
  if (geo.level == RaidLevel::kRaid6) {
    ScratchPage p_syn_sp(ScratchPage::kZeroed);
    ScratchPage q_syn_sp(ScratchPage::kZeroed);
    Page& p_syn = *p_syn_sp;
    Page& q_syn = *q_syn_sp;
    for (std::uint32_t k = 0; k < dd; ++k) {
      const DiskAddr a = layout_.map(layout_.group_member(g, k));
      const auto raw = media_[a.disk]->raw_page(a.page);
      xor_into(p_syn, raw);
      gf256::mul_acc(q_syn, gf256::exp(k), raw);
    }
    const DiskAddr qa = layout_.q_parity_addr(g);
    xor_into(p_syn, media_[pa.disk]->raw_page(pa.page));
    xor_into(q_syn, media_[qa.disk]->raw_page(qa.page));
    const bool p_nz = !all_zero(p_syn);
    const bool q_nz = !all_zero(q_syn);
    if (p_nz && !q_nz) {
      // P alone disagrees: P itself rotted. Fix P := P_disk ^ P_syn.
      Page fix(media_[pa.disk]->raw_page(pa.page).begin(),
               media_[pa.disk]->raw_page(pa.page).end());
      xor_into(fix, p_syn);
      return dev_write(pa.disk, pa.page, fix) == IoStatus::kOk;
    }
    if (!p_nz && q_nz) {
      Page fix(media_[qa.disk]->raw_page(qa.page).begin(),
               media_[qa.disk]->raw_page(qa.page).end());
      xor_into(fix, q_syn);
      return dev_write(qa.disk, qa.page, fix) == IoStatus::kOk;
    }
    if (p_nz && q_nz) {
      for (std::uint32_t z = 0; z < dd; ++z) {
        const std::uint8_t gz = gf256::exp(z);
        bool match = true;
        for (std::uint32_t i = 0; i < kPageSize; ++i) {
          if (q_syn[i] != gf256::mul(gz, p_syn[i])) {
            match = false;
            break;
          }
        }
        if (!match) continue;
        const DiskAddr a = layout_.map(layout_.group_member(g, z));
        Page fix(media_[a.disk]->raw_page(a.page).begin(),
                 media_[a.disk]->raw_page(a.page).end());
        xor_into(fix, p_syn);  // undo the error e
        if (dev_write(a.disk, a.page, fix) != IoStatus::kOk) return false;
        ++read_repairs_;
        return true;
      }
      // No single member explains both syndromes: multi-page rot. Fall
      // through to the data-authoritative resync.
    }
  }

  // Tier 3 — cannot localise (RAID-5 without a device-level verdict):
  // recompute parity from data, the classical resync semantics.
  return resync_group(g) == IoStatus::kOk;
}

std::uint64_t RaidArray::scrub_and_repair() {
  return scrub_and_repair_range(0, layout_.geometry().num_groups());
}

std::uint64_t RaidArray::scrub_and_repair_range(GroupId begin, GroupId end,
                                                bool skip_stale) {
  const std::vector<GroupId> bad = scrub_range(begin, end);
  std::uint64_t repaired = 0;
  for (const GroupId g : bad) {
    if (skip_stale && stale_groups_.contains(g)) continue;
    if (repair_group(g)) ++repaired;
  }
  return repaired;
}

std::uint64_t RaidArray::total_disk_reads() const {
  std::uint64_t n = 0;
  for (const auto& d : media_) n += d->counters().reads;
  return n;
}

std::uint64_t RaidArray::total_disk_writes() const {
  std::uint64_t n = 0;
  for (const auto& d : media_) n += d->counters().writes;
  return n;
}

void RaidArray::reset_counters() {
  for (auto& d : media_) d->reset_counters();
  for (auto& d : disks_) d->reset_counters();
}

}  // namespace kdd
