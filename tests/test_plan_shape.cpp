// Plan shapes per request class: which device ops a request records and how
// they are phased. Notation: S/s is an SSD read/write, H/h an HDD read/write,
// and braces enclose one phase (ops of a phase are issued together).
//
// A request's independent chains of device ops are recorded as lanes of a
// PlanFork and joined side by side, so, for example, an old-page read hit
// reads its DAZ copy and its DEZ delta in one phase. The shapes before the
// lanes were introduced are kept beside each expectation: a request must
// record exactly the same multiset of ops as it did then, only in fewer
// phases. The replay digests at the bottom pin the exact ops (device, page,
// kind) of every request and every background phase of seeded runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "blockdev/ssd_model.hpp"
#include "common/rng.hpp"
#include "kdd/kdd_cache.hpp"
#include "policies/dedup_cache.hpp"
#include "policies/leavo.hpp"
#include "policies/write_through.hpp"
#include "raid/raid_array.hpp"
#include "raid/rebuild.hpp"
#include "test_util.hpp"

namespace kdd {
namespace {

using testing::test_page;

char op_letter(const DeviceOp& op) {
  const bool read = op.kind == IoKind::kRead;
  if (op.target == DeviceOp::Target::kSsd) return read ? 'S' : 's';
  return read ? 'H' : 'h';
}

std::string shape(const IoPlan& plan) {
  std::string out;
  for (const auto& phase : plan.phases()) {
    out += '{';
    for (std::size_t i = 0; i < phase.size(); ++i) {
      if (i > 0) out += ' ';
      out += op_letter(phase[i]);
    }
    out += '}';
  }
  return out;
}

/// The multiset of op letters in a shape string, e.g. "{S}{h}" -> "Sh".
std::string ops_of(const std::string& shape_text) {
  std::string ops;
  for (const char c : shape_text) {
    if (c == 'S' || c == 's' || c == 'H' || c == 'h') ops += c;
  }
  std::sort(ops.begin(), ops.end());
  return ops;
}

/// Checks one request: its shape is `now`, and it records the same ops as
/// the serial shape `before`.
void expect_shape(const std::string& got, const std::string& before,
                  const std::string& now, const char* what) {
  EXPECT_EQ(got, now) << what;
  EXPECT_EQ(ops_of(got), ops_of(before)) << what << " (parent shape " << before << ")";
}

RaidGeometry shape_geo() {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 1024;
  return geo;
}

/// The paper's residency: every miss allocates, so one request shows each
/// chain (the baselines ignore it).
PolicyConfig shape_config() {
  PolicyConfig cfg = PolicyConfig::paper();
  cfg.ssd_pages = 1024;
  cfg.ways = 8;
  return cfg;
}

enum class Kind { kKdd, kWT, kLeavO, kDedup };

/// One policy plus (in prototype mode) its devices, driven request by
/// request with a fresh recording plan each time.
struct Rig {
  Rig(const PolicyConfig& cfg, bool prototype, Kind kind) {
    if (prototype) {
      array = std::make_unique<RaidArray>(shape_geo());
      SsdConfig scfg;
      scfg.logical_pages = cfg.ssd_pages;
      ssd = std::make_unique<SsdModel>(scfg);
    }
    switch (kind) {
      case Kind::kKdd: {
        auto owned = prototype ? std::make_unique<KddCache>(cfg, array.get(), ssd.get())
                               : std::make_unique<KddCache>(cfg, shape_geo());
        kdd = owned.get();
        policy = std::move(owned);
        break;
      }
      case Kind::kWT:
        policy = prototype ? std::make_unique<WriteThroughPolicy>(cfg, array.get(), ssd.get())
                           : std::make_unique<WriteThroughPolicy>(cfg, shape_geo());
        break;
      case Kind::kLeavO:
        policy = prototype ? std::make_unique<LeavOPolicy>(cfg, array.get(), ssd.get())
                           : std::make_unique<LeavOPolicy>(cfg, shape_geo());
        break;
      case Kind::kDedup:
        KDD_CHECK(prototype);  // dedup needs real contents
        policy = std::make_unique<DedupCachePolicy>(cfg, array.get(), ssd.get());
        break;
    }
    buf = make_page();
  }

  bool real() const { return array != nullptr; }

  std::string read(Lba lba) {
    IoPlan plan;
    EXPECT_EQ(policy->read(lba, real() ? std::span<std::uint8_t>(buf)
                                       : std::span<std::uint8_t>(), &plan),
              IoStatus::kOk);
    return shape(plan);
  }

  /// Writes the next version of a page: the previous version (the array
  /// starts zeroed) with 64 bytes changed, so prototype-mode deltas compress
  /// well.
  std::string write(Lba lba) {
    IoPlan plan;
    EXPECT_EQ(policy->write(lba, real() ? std::span<const std::uint8_t>(next_version(lba))
                                        : std::span<const std::uint8_t>(), &plan),
              IoStatus::kOk);
    return shape(plan);
  }

  const Page& next_version(Lba lba) {
    const auto it = contents.try_emplace(lba, make_page()).first;
    const std::uint64_t v = ++versions[lba];
    Rng rng(lba * 131 + v);
    const std::size_t at = rng.next_below(kPageSize - 64);
    for (std::size_t b = 0; b < 64; ++b) {
      it->second[at + b] = static_cast<std::uint8_t>(rng.next_u64());
    }
    return it->second;
  }

  std::uint64_t ssd_writes(SsdWriteKind kind) const {
    return policy->stats().ssd_writes[static_cast<int>(kind)];
  }

  std::unique_ptr<RaidArray> array;
  std::unique_ptr<SsdModel> ssd;
  std::unique_ptr<CachePolicy> policy;
  KddCache* kdd = nullptr;
  Page buf;
  std::unordered_map<Lba, Page> contents;
  std::unordered_map<Lba, std::uint64_t> versions;
};

// ---------------------------------------------------------------------------
// KDD request classes (counter and prototype mode)
// ---------------------------------------------------------------------------

class KddPlanShape : public ::testing::TestWithParam<bool> {};

TEST_P(KddPlanShape, EachRequestClassOverlapsItsIndependentChains) {
  Rig rig(shape_config(), /*prototype=*/GetParam(), Kind::kKdd);

  expect_shape(rig.read(1), "{H}{s}", "{H}{s}", "read miss");
  expect_shape(rig.read(1), "{S}", "{S}", "clean read hit");
  expect_shape(rig.write(2), "{H H}{h h}{s}", "{H H s}{h h}", "write miss");
  expect_shape(rig.write(1), "{S}{h}", "{S h}", "clean write hit");
  ASSERT_EQ(rig.kdd->staged_deltas(), 1u);
  expect_shape(rig.read(1), "{S}", "{S}", "old read hit, delta staged in NVRAM");

  // Write hits on fresh pages until one of them finds the staging buffer
  // full: that request also commits the buffer into a DEZ page.
  bool committed = false;
  for (Lba lba = 100; lba < 400 && !committed; lba += 4) {
    rig.read(lba);
    const std::uint64_t commits = rig.ssd_writes(SsdWriteKind::kDeltaCommit);
    const std::string hit = rig.write(lba);
    if (rig.ssd_writes(SsdWriteKind::kDeltaCommit) == commits) {
      expect_shape(hit, "{S}{h}", "{S h}", "clean write hit");
      continue;
    }
    committed = true;
    expect_shape(hit, "{S}{h}{s}", "{S h s}", "write hit committing the staging buffer");
  }
  ASSERT_TRUE(committed);
  ASSERT_GT(rig.kdd->dez_pages(), 0u);

  // Page 1's delta now lives in a DEZ page: the read combines two SSD reads.
  expect_shape(rig.read(1), "{S}{S}", "{S S}", "old read hit, delta in a DEZ page");
  expect_shape(rig.write(1), "{S}{h}", "{S h}", "old write hit");
  expect_shape(rig.read(1), "{S}", "{S}", "old read hit, delta staged in NVRAM");
  EXPECT_EQ(rig.policy->stats().metadata_ssd_writes(), 0u);  // buffer never filled
}

TEST_P(KddPlanShape, MetadataCommitAddsATrailingSsdWritePhase) {
  PolicyConfig cfg = shape_config();
  cfg.metadata_buffer_entries = 1;  // every mapping entry commits a page
  cfg.metadata_fraction = 0.1;      // room enough that the log never collects
  Rig rig(cfg, /*prototype=*/GetParam(), Kind::kKdd);

  expect_shape(rig.read(1), "{H}{s}{s}", "{H}{s}{s}", "read miss");
  expect_shape(rig.write(2), "{H H}{h h}{s}{s}", "{H H s}{h h}{s}", "write miss");
  bool committed = false;
  for (Lba lba = 100; lba < 400 && !committed; lba += 4) {
    rig.read(lba);
    const std::uint64_t commits = rig.ssd_writes(SsdWriteKind::kDeltaCommit);
    const std::uint64_t meta = rig.policy->stats().metadata_ssd_writes();
    const std::string hit = rig.write(lba);
    if (rig.ssd_writes(SsdWriteKind::kDeltaCommit) == commits) continue;
    committed = true;
    // The DEZ page write, then one metadata page per delta it maps.
    std::string trailing;
    for (std::uint64_t m = meta; m < rig.policy->stats().metadata_ssd_writes(); ++m) {
      trailing += "{s}";
    }
    ASSERT_FALSE(trailing.empty());
    expect_shape(hit, "{S}{h}{s}" + trailing, "{S h s}" + trailing,
                 "write hit committing the staging buffer");
  }
  ASSERT_TRUE(committed);
}

TEST_P(KddPlanShape, WriteMissReconstructsFromResidentRowMates) {
  // Resident row-mates' DAZ reads stand in for disk reads. The data write
  // needs none of them, so it starts beside the reads and the fill; only
  // the parity write waits for them.
  Rig rig(shape_config(), /*prototype=*/GetParam(), Kind::kKdd);
  const RaidLayout layout(shape_geo());
  const GroupId g = 20;
  const auto member = [&](std::uint32_t k) { return layout.group_member(g, k); };
  rig.read(member(1));
  rig.read(member(2));
  expect_shape(rig.write(member(0)), "{S}{S}{H h}{h}{s}", "{S S H h s}{h}",
               "write miss, two row-mates resident");
  expect_shape(rig.write(member(3)), "{S}{S}{S}{h}{h}{s}", "{S S S h s}{h}",
               "write miss, three row-mates resident");
  EXPECT_EQ(rig.kdd->write_miss_rcw(), 2u);

  // One resident row-mate would save no read: RMW, exactly as before.
  const GroupId g2 = 24;
  rig.read(layout.group_member(g2, 1));
  expect_shape(rig.write(layout.group_member(g2, 0)), "{H H}{h h}{s}", "{H H s}{h h}",
               "write miss, one row-mate resident");
  EXPECT_EQ(rig.kdd->write_miss_rcw(), 2u);
}

INSTANTIATE_TEST_SUITE_P(Modes, KddPlanShape, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& mode) {
                           return std::string(mode.param ? "Prototype" : "Counter");
                         });

TEST(PlanShape, KddWriteMissFillWaitsForADegradedFold) {
  // A write miss on a lost member of a stale group: the array refuses the
  // RMW, the cache folds the group's deltas and retries. The fill must then
  // come after the fold and the retried RMW, not beside them.
  RaidGeometry geo = shape_geo();
  geo.disk_pages = 256;
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 256;
  SsdModel ssd(scfg);
  NvramState nvram(kPageSize, 255);
  OnlineRebuildConfig slow;  // keep the member down for the whole test
  slow.chunk_groups = 1;
  slow.min_chunk_groups = 1;
  slow.ops_between_steps = 1024;
  RebuildEngine engine(&array, slow);
  PolicyConfig cfg = shape_config();
  cfg.ssd_pages = 256;
  KddCache kdd(cfg, &array, &ssd, &nvram);
  kdd.bind_rebuild_engine(&engine);

  const GroupId g = 40;
  const Lba victim = array.layout().group_member(g, 0);
  const Lba peer = array.layout().group_member(g, 1);
  Page page = make_page();
  ASSERT_EQ(kdd.read(peer, page, nullptr), IoStatus::kOk);
  page[100] = 1;  // a small delta: the peer's parity goes stale
  ASSERT_EQ(kdd.write(peer, page, nullptr), IoStatus::kOk);
  ASSERT_TRUE(array.group_stale(g));
  ASSERT_TRUE(kdd.handle_disk_failure_online(array.layout().map(victim).disk));

  IoPlan plan;
  ASSERT_EQ(kdd.write(victim, test_page(victim), &plan), IoStatus::kOk);
  ASSERT_EQ(kdd.degraded_delta_folds(), 1u);
  const std::string got = shape(plan);
  const std::size_t fill = got.rfind("{s}");
  ASSERT_NE(fill, std::string::npos) << got;
  EXPECT_EQ(fill + 3, got.size()) << got;  // the last phase, on its own
  EXPECT_NE(got.find('h'), std::string::npos) << got;  // the retried write
}

// ---------------------------------------------------------------------------
// Baselines: the array write and the cache write overlap there too
// ---------------------------------------------------------------------------

TEST(PlanShape, WriteThroughOverlapsArrayAndCacheWrites) {
  Rig rig(shape_config(), /*prototype=*/false, Kind::kWT);
  expect_shape(rig.read(1), "{H}{s}", "{H}{s}", "read miss");
  expect_shape(rig.read(1), "{S}", "{S}", "read hit");
  expect_shape(rig.write(1), "{H H}{h h}{s}", "{H H s}{h h}", "write hit");
  expect_shape(rig.write(2), "{H H}{h h}{s}", "{H H s}{h h}", "write miss");
}

TEST(PlanShape, LeavOOverlapsArrayAndCacheWrites) {
  Rig rig(shape_config(), /*prototype=*/false, Kind::kLeavO);
  expect_shape(rig.read(1), "{H}{s}", "{H}{s}", "read miss");
  expect_shape(rig.write(2), "{H H}{h h}{s}", "{H H s}{h h}", "write miss");
  expect_shape(rig.write(1), "{s}{h}", "{h s}", "write hit pinning a version pair");
  expect_shape(rig.write(1), "{s}{h}", "{h s}", "write hit on the new version");
  expect_shape(rig.read(1), "{S}", "{S}", "read hit on the new version");
}

TEST(PlanShape, DedupOverlapsArrayWriteAndCacheInsert) {
  Rig rig(shape_config(), /*prototype=*/true, Kind::kDedup);
  const Page same = test_page(7);
  IoPlan plan;
  ASSERT_EQ(rig.policy->write(1, same, &plan), IoStatus::kOk);
  expect_shape(shape(plan), "{H H}{h h}{s}", "{H H s}{h h}", "write of new contents");
  plan.clear();
  ASSERT_EQ(rig.policy->write(2, same, &plan), IoStatus::kOk);
  expect_shape(shape(plan), "{H H}{h h}", "{H H}{h h}", "write of resident contents");
  expect_shape(rig.read(2), "{S}", "{S}", "read hit");
}

// ---------------------------------------------------------------------------
// Seeded replays: the exact ops of every request and background phase
// ---------------------------------------------------------------------------

struct ReplayDigest {
  std::uint64_t foreground = 0;  ///< per-request op multisets, in request order
  std::uint64_t background = 0;  ///< background plans, phase by phase
  std::uint64_t idle = 0;        ///< one idle cleaning pass, phase by phase
  std::uint64_t ops = 0;
  std::uint64_t cleanings = 0;

  bool operator==(const ReplayDigest& o) const {
    return std::tie(foreground, background, idle, ops, cleanings) ==
           std::tie(o.foreground, o.background, o.idle, o.ops, o.cleanings);
  }
};

void PrintTo(const ReplayDigest& d, std::ostream* os) {
  *os << "{0x" << std::hex << d.foreground << "ull, 0x" << d.background
      << "ull, 0x" << d.idle << "ull, " << std::dec << d.ops << ", "
      << d.cleanings << "}";
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t op_key(const DeviceOp& op) {
  return (static_cast<std::uint64_t>(op.target) << 60) |
         (static_cast<std::uint64_t>(op.kind) << 56) |
         (static_cast<std::uint64_t>(op.device) << 40) | op.page;
}

/// Order-insensitive within the request: what the request did, not when.
std::uint64_t fold_multiset(std::uint64_t h, const IoPlan& plan) {
  std::vector<std::uint64_t> keys;
  for (const auto& phase : plan.phases()) {
    for (const DeviceOp& op : phase) keys.push_back(op_key(op));
  }
  std::sort(keys.begin(), keys.end());
  h = fnv(h, keys.size());
  for (const std::uint64_t k : keys) h = fnv(h, k);
  return h;
}

/// Exact: phase boundaries and the op order inside each phase.
std::uint64_t fold_phases(std::uint64_t h, const IoPlan& plan) {
  for (const auto& phase : plan.phases()) {
    h = fnv(h, phase.size());
    for (const DeviceOp& op : phase) h = fnv(h, op_key(op));
  }
  return h;
}

ReplayDigest replay(bool prototype, Kind kind,
                    Residency residency = Residency::kAlwaysAdmit) {
  PolicyConfig cfg = shape_config();
  cfg.ssd_pages = 256;  // small enough that cleaning and eviction run
  cfg.residency = residency;
  Rig rig(cfg, prototype, kind);
  IoPlan background;
  rig.policy->set_background_plan(&background);
  ReplayDigest d;
  d.foreground = d.background = d.idle = 0xcbf29ce484222325ull;
  Rng rng(2024);
  for (int i = 0; i < 4000; ++i) {
    const Lba lba = rng.next_below(1500);
    IoPlan plan;
    if (rng.next_bool(0.6)) {
      rig.policy->write(lba, prototype ? std::span<const std::uint8_t>(rig.next_version(lba))
                                       : std::span<const std::uint8_t>(), &plan);
    } else {
      rig.policy->read(lba, prototype ? std::span<std::uint8_t>(rig.buf)
                                      : std::span<std::uint8_t>(), &plan);
    }
    d.foreground = fold_multiset(d.foreground, plan);
    d.background = fold_phases(d.background, background);
    d.ops += plan.total_ops() + background.total_ops();
    background.clear();
  }
  IoPlan idle;
  rig.policy->on_idle(&idle);
  d.idle = fold_phases(d.idle, idle);
  d.ops += idle.total_ops();
  d.cleanings = rig.policy->stats().cleanings;
  return d;
}

// Pinned from the serial recording that preceded the lanes: the lanes move
// ops between phases of one request, never add, drop or reorder them across
// requests, and background work is recorded exactly as before. The replay
// cleans, so the two KDD rows also encode the cleaner's victim order. They
// were re-pinned when it switched from the lowest-addressed dirty groups to
// the least recently written ones; with only the claim order switched back,
// both rows reproduce the serial recording's digests exactly. Their
// foreground digests and op counts were re-pinned again when write misses
// began reconstruct-writing from resident row-mates (SSD reads in place of
// disk reads); with only that choice disabled
// (RaidGeometry::prefers_reconstruct_write always false), both rows
// reproduce the previous pins, background and idle digests included.
TEST(PlanShape, SeededReplaysRecordTheSameOpsAsTheSerialRecording) {
  constexpr std::uint64_t kNone = 0xcbf29ce484222325ull;  // nothing recorded
  EXPECT_EQ(replay(false, Kind::kKdd),
            (ReplayDigest{0x4761d1e572ff97f0ull, 0xd33201f38aa9ddcaull,
                          0x8db955799a778cull, 15172, 8}));
  EXPECT_EQ(replay(true, Kind::kKdd),
            (ReplayDigest{0x7d4b9b188c2e0fe6ull, 0xc1a6bd3b2d3226ebull,
                          0xadb298eff61dfe23ull, 15013, 6}));
  // The default residency on the same stream: second-miss admission, and
  // destage keeps re-referenced old pages as clean.
  EXPECT_EQ(replay(false, Kind::kKdd, Residency::kReReferenced),
            (ReplayDigest{0x22d2e445d359228cull, 0x5d5f0f10dc0aa0f8ull,
                          0x35e31c641b310dccull, 12312, 6}));
  EXPECT_EQ(replay(true, Kind::kKdd, Residency::kReReferenced),
            (ReplayDigest{0x44c2a98a3e7bbee8ull, 0x3eaa97ec2dad6f23ull,
                          0xbf472163dcf610f2ull, 12165, 5}));
  EXPECT_EQ(replay(false, Kind::kWT),
            (ReplayDigest{0xa0dd759ae33aaa09ull, kNone, kNone, 15082, 0}));
  EXPECT_EQ(replay(false, Kind::kLeavO),
            (ReplayDigest{0xeaa59da6138602d2ull, 0x590622ce706b1dc0ull,
                          0xf14e1ec114b571b6ull, 15215, 12}));
  EXPECT_EQ(replay(true, Kind::kDedup),
            (ReplayDigest{0xe5a8b96e6eb905a3ull, kNone, kNone, 14333, 0}));
}

}  // namespace
}  // namespace kdd
