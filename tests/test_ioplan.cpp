#include "raid/io_plan.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "blockdev/fault_device.hpp"
#include "blockdev/mem_device.hpp"
#include "blockdev/retry.hpp"
#include "harness/harness.hpp"
#include "policies/nocache.hpp"

namespace kdd {
namespace {

DeviceOp op(std::uint32_t device, Lba page, IoKind kind) {
  return {DeviceOp::Target::kHdd, device, page, kind};
}

TEST(IoPlan, AddGrowsPhases) {
  IoPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.add(2, op(0, 1, IoKind::kRead));
  EXPECT_EQ(plan.phases().size(), 3u);
  EXPECT_TRUE(plan.phases()[0].empty());
  EXPECT_EQ(plan.total_ops(), 1u);
  EXPECT_EQ(plan.next_phase(), 3u);
}

TEST(IoPlan, AppendSequentialSkipsEmptyPhases) {
  IoPlan a;
  a.add(0, op(0, 1, IoKind::kRead));
  IoPlan b;
  b.add(1, op(1, 2, IoKind::kWrite));  // phase 0 of b is empty
  a.append_sequential(b);
  ASSERT_EQ(a.phases().size(), 2u);
  EXPECT_EQ(a.phases()[1][0].device, 1u);
}

TEST(IoPlan, MergeParallelAlignsPhases) {
  IoPlan a;
  a.add(0, op(0, 1, IoKind::kRead));
  a.add(1, op(0, 1, IoKind::kWrite));
  IoPlan b;
  b.add(0, op(1, 2, IoKind::kRead));
  b.add(1, op(1, 2, IoKind::kWrite));
  b.add(2, op(2, 3, IoKind::kWrite));
  a.merge_parallel(b);
  ASSERT_EQ(a.phases().size(), 3u);
  EXPECT_EQ(a.phases()[0].size(), 2u);  // both reads in phase 0
  EXPECT_EQ(a.phases()[1].size(), 2u);
  EXPECT_EQ(a.phases()[2].size(), 1u);
  EXPECT_EQ(a.total_ops(), 5u);
}

TEST(IoPlan, ClearResets) {
  IoPlan a;
  a.add(0, op(0, 1, IoKind::kRead));
  a.clear();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.total_ops(), 0u);
}

TEST(IoPlan, MultiPageRequestKeepsPagesParallel) {
  // Through the simulator's execute path: a 4-page read on Nossd should be
  // one phase of 4 parallel disk reads, so its latency is far below 4 serial
  // reads.
  const RaidGeometry geo = paper_geometry(60000);
  NoCachePolicy policy(geo);
  EventSimulator sim(paper_sim_config(geo.num_disks), &policy);
  Trace multi;
  multi.records = {{0, 40000, 4, true}};  // away from the parked head
  const SimResult one_req = sim.run_open_loop(multi);

  NoCachePolicy policy2(geo);
  EventSimulator sim2(paper_sim_config(geo.num_disks), &policy2);
  Trace serial;
  for (Lba i = 0; i < 4; ++i) {
    // Scattered pages (within the array), far-apart arrivals: each pays
    // seek + rotation.
    serial.records.push_back({i * 1000000, 30000 + i * 5000, 1, true});
  }
  const SimResult four_reqs = sim2.run_open_loop(serial);
  // The 4-page request pays positioning once (its pages are adjacent on one
  // chunk), the four random requests pay it four times.
  EXPECT_LT(one_req.latency.max_us(), four_reqs.latency.mean_us() * 3);
}

TEST(IoPlan, MergedPlansKeepTheirRetryBackoff) {
  IoPlan a;
  a.add(0, op(0, 1, IoKind::kRead));
  a.add_retry_delay(100);
  IoPlan b;
  b.add(0, op(1, 2, IoKind::kRead));
  b.add_retry_delay(250);

  IoPlan beside = a;
  beside.merge_parallel(b);  // side by side: the longer backoff counts
  EXPECT_EQ(beside.retry_delay_us(), 250u);

  IoPlan behind = a;
  behind.merge_parallel(b, behind.next_phase());  // b runs after a
  ASSERT_EQ(behind.phases().size(), 2u);
  EXPECT_EQ(behind.retry_delay_us(), 350u);

  IoPlan appended = a;
  appended.append_sequential(b);
  EXPECT_EQ(appended.retry_delay_us(), 350u);
}

TEST(IoPlan, MergeParallelFromAPhaseOverlapsTheTail) {
  IoPlan a;
  a.add(0, op(0, 1, IoKind::kRead));
  a.add(1, op(0, 1, IoKind::kWrite));
  IoPlan b;
  b.add(0, op(1, 2, IoKind::kRead));
  b.add(1, op(1, 2, IoKind::kWrite));
  a.merge_parallel(b, 1);
  ASSERT_EQ(a.phases().size(), 3u);
  EXPECT_EQ(a.phases()[0].size(), 1u);
  ASSERT_EQ(a.phases()[1].size(), 2u);  // a's write beside b's read
  EXPECT_EQ(a.phases()[1][1].device, 1u);
  EXPECT_EQ(a.phases()[1][1].kind, IoKind::kRead);
  EXPECT_EQ(a.phases()[2].size(), 1u);
}

TEST(PlanFork, JoinsLanesSideBySideAtTheForkPhase) {
  IoPlan parent;
  parent.add(0, op(0, 1, IoKind::kRead));
  parent.add_retry_delay(50);
  {
    PlanFork<3> fork(&parent);
    IoPlan* a = fork.lane(0);
    a->add(a->next_phase(), op(1, 1, IoKind::kRead));
    a->add_retry_delay(10);
    IoPlan* b = fork.lane(1);
    b->add(b->next_phase(), op(2, 1, IoKind::kWrite));
    b->add(b->next_phase(), op(2, 2, IoKind::kWrite));
    b->add_retry_delay(30);
    fork.lane(2)->add_retry_delay(20);  // backoff of an op that never landed
    EXPECT_EQ(parent.next_phase(), 1u);  // nothing reaches the parent early
  }  // scope exit joins
  ASSERT_EQ(parent.phases().size(), 3u);
  EXPECT_EQ(parent.phases()[1].size(), 2u);  // both lanes' first ops
  EXPECT_EQ(parent.phases()[2].size(), 1u);
  EXPECT_EQ(parent.total_ops(), 4u);
  // Behind the parent's own backoff, the slowest lane's.
  EXPECT_EQ(parent.retry_delay_us(), 50u + 30u);
}

TEST(PlanFork, AfterJoinEveryLaneIsTheParent) {
  IoPlan parent;
  PlanFork<2> fork(&parent);
  EXPECT_NE(fork.lane(0), &parent);
  fork.lane(0)->add(0, op(0, 1, IoKind::kRead));
  fork.join();
  EXPECT_EQ(fork.lane(0), &parent);
  EXPECT_EQ(fork.lane(1), &parent);
  // What follows the join runs serially behind it.
  fork.lane(1)->add(fork.lane(1)->next_phase(), op(1, 1, IoKind::kWrite));
  fork.join();  // idempotent
  ASSERT_EQ(parent.phases().size(), 2u);
  EXPECT_EQ(parent.total_ops(), 2u);

  PlanFork<2> none(nullptr);
  EXPECT_EQ(none.lane(0), nullptr);
  EXPECT_EQ(none.lane(1), nullptr);
}

/// Serves reads from memory through a FaultInjectingDevice under the same
/// bounded retry the cache SSD and the array use, charging the backoff into
/// the plan. Reads of page `flaky` fail transiently on every attempt, so
/// they pay the whole retry budget's backoff.
class FlakyReadPolicy final : public CachePolicy {
 public:
  explicit FlakyReadPolicy(Lba flaky) : flaky_page_(flaky) {}

  std::string name() const override { return "flaky-read"; }

  IoStatus read(Lba lba, std::span<std::uint8_t> out, IoPlan* plan) override {
    plan->add(plan->next_phase(), op(0, lba, IoKind::kRead));
    FaultInjectingDevice& dev = lba == flaky_page_ ? flaky_ : clean_;
    const RetryResult r = with_retry([&] { return dev.read(lba, out); });
    plan->add_retry_delay(r.backoff_us);
    charged_ += r.backoff_us;
    return r.status;
  }
  IoStatus write(Lba, std::span<const std::uint8_t>, IoPlan*) override {
    return IoStatus::kOk;
  }
  CacheStats stats() const override { return {}; }

  SimTime charged() const { return charged_; }

 private:
  static FaultConfig always_transient() {
    FaultConfig fc;
    fc.transient_read_prob = 1.0;
    return fc;
  }

  Lba flaky_page_;
  MemBlockDevice media_{64};
  FaultInjectingDevice clean_{&media_};
  FaultInjectingDevice flaky_{&media_, always_transient()};
  SimTime charged_ = 0;
};

TEST(IoPlan, TransientReadBackoffReachesExactlyOneSimulatedRequest) {
  // Three well-spaced requests; the middle one reads pages 2 and 3 through
  // the simulator's per-page merge.
  Trace trace;
  trace.records = {{0, 1, 1, true},
                   {100 * kUsPerMs, 2, 2, true},
                   {200 * kUsPerMs, 5, 1, true}};
  const auto run = [&](Lba flaky, SimTime* charged) {
    FlakyReadPolicy policy(flaky);
    EventSimulator sim(paper_sim_config(1), &policy);
    std::vector<SimTime> latencies;
    sim.set_request_observer(
        [&](SimTime, SimTime latency) { latencies.push_back(latency); });
    sim.run_open_loop(trace);
    *charged = policy.charged();
    return latencies;
  };
  SimTime none = 0;
  SimTime charged = 0;
  const std::vector<SimTime> clean = run(kInvalidLba, &none);
  const std::vector<SimTime> faulted = run(3, &charged);
  ASSERT_EQ(clean.size(), 3u);
  ASSERT_EQ(faulted.size(), 3u);
  EXPECT_EQ(none, 0u);
  EXPECT_GT(charged, 0u);
  EXPECT_EQ(faulted[0], clean[0]);
  EXPECT_EQ(faulted[1], clean[1] + charged);
  EXPECT_EQ(faulted[2], clean[2]);
}

}  // namespace
}  // namespace kdd
