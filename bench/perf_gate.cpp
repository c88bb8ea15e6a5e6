// Perf-regression gate for the data-path primitives.
//
// Re-measures the hot kernels of this build and writes BENCH_micro.json:
// for every kernel a `before_ns` (the pre-overhaul seed build, measured on
// the reference machine with the exact same workloads — see the constants
// below) and an `after_ns` (this build, this machine), plus derived
// throughput. With --check it enforces the overhaul's acceptance
// thresholds:
//   * gf256_mul_acc over a 4 KiB page: >= 3x faster than the seed,
//   * delta make/apply round-trip:     >= 30% fewer ns/op than the seed,
//   * observability overhead: a fig9-style KDD open-loop replay with the
//     full telemetry stack on (spans + metrics + wear bucketing) must cost
//     <= 5% more wall time than the identical replay with telemetry off.
//     Like the pool/scaling gates this only gates on machines with >= 2
//     hardware threads: on a single core the paired off/on rounds time-slice
//     against the process's own background work and the median ratio is
//     noise, so the number is recorded in BENCH_micro.json without gating,
//   * segment staging: the same prototype KDD write stream replayed with
//     segment staging off and on must commit the identical page stream with
//     >= 4x fewer SSD write commands per committed page, and the post-flush
//     read-back digests must be byte-identical (deterministic counters, so
//     this gates on every host),
//   * page hash: kern::page_hash over a 4 KiB page must be >= 8x faster
//     than the byte-serial 64-bit FNV-1a loop it replaced as the media
//     checksum and segment CRC. Both sides are measured in the same run, so
//     page_hash_4k's before_ns is that loop on this host, not a seed figure,
//   * destage batching: folding 4 groups x 4 deltas of stale parity via one
//     update_parity_rmw_batch pass (one parity read/write pair per group)
//     must be >= 2x faster than the legacy per-page protocol (one parity
//     read/write pair per delta),
//   * cleaner-pool replay (only on machines with >= 4 hardware threads): a
//     4-submitter fin1 replay over ConcurrentCache with a 4-worker cleaner
//     pool must be >= 1.5x faster than the same replay with the serial idle
//     cleaner. On smaller machines the numbers are still recorded in
//     BENCH_micro.json but do not gate.
//
// It also records ns/op for the observability primitives themselves
// (MetricsRegistry counter increment, SpanScope start/stop with tracing off
// and on) so regressions in the instrumentation's own cost show up in
// BENCH_micro.json even though only the 5% end-to-end bound gates.
//
// Methodology: each op is auto-calibrated to ~2 ms batches; 7 batches are
// run and the fastest is reported (minimum-of-N is robust against scheduler
// noise, which only ever slows a batch down). Absolute numbers move with the
// host CPU; the *ratios* the gate checks are stable across the x86-64
// machines this was validated on because before/after exercise identical
// memory traffic. Run on the same machine class as the recorded baseline
// for meaningful absolute comparisons (see docs/performance.md).
//
// Usage: perf_gate [--check] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/kernels.hpp"
#include "common/rng.hpp"
#include "compress/content.hpp"
#include "compress/delta.hpp"
#include "compress/lz.hpp"
#include "blockdev/ssd_model.hpp"
#include "harness/harness.hpp"
#include "harness/telemetry.hpp"
#include "kdd/concurrent.hpp"
#include "kdd/kdd_cache.hpp"
#include "raid/raid_array.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "raid/gf256.hpp"
#include "sim/event_sim.hpp"
#include "trace/generators.hpp"

namespace kdd {
namespace {

Page random_page(std::uint64_t seed) {
  Rng rng(seed);
  Page p(kPageSize);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.next_u64());
  return p;
}

/// The byte-serial 64-bit FNV-1a loop that kern::page_hash replaced in the
/// fault device and the segment CRCs, kept only as page_hash_4k's "before".
std::uint64_t fnv1a_bytes(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

double now_ns() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Minimum-of-7 ns/op for `fn`, auto-calibrated to ~2 ms batches.
double measure_ns(const std::function<void()>& fn) {
  // Calibrate the batch size.
  std::uint64_t iters = 1;
  for (;;) {
    const double t0 = now_ns();
    for (std::uint64_t i = 0; i < iters; ++i) fn();
    const double elapsed = now_ns() - t0;
    if (elapsed >= 2e6 || iters > (1ull << 30)) break;
    const double target = 2.5e6;
    const double guess = elapsed > 0 ? target / elapsed : 2.0;
    iters = std::max(iters + 1, static_cast<std::uint64_t>(
                                    static_cast<double>(iters) * guess));
  }
  double best = 1e18;
  for (int rep = 0; rep < 7; ++rep) {
    const double t0 = now_ns();
    for (std::uint64_t i = 0; i < iters; ++i) fn();
    const double per_op = (now_ns() - t0) / static_cast<double>(iters);
    if (per_op < best) best = per_op;
  }
  return best;
}

struct BenchCase {
  const char* name;
  double before_ns;  ///< seed build, reference machine (see file header)
  double bytes;      ///< per-op payload for GiB/s (0 = not meaningful)
  std::function<void()> fn;
  std::function<void()> setup;     ///< optional, run before measuring
  std::function<void()> teardown;  ///< optional, run after measuring
};

/// One fig9-style replay (KDD over the Fin1 preset, open loop through the
/// event simulator). With `telemetry` a full TelemetrySession is live: span
/// tracing on, metrics registry recording, wear buckets closing on the sim
/// observer — exactly the --telemetry posture of bench/fig9_trace_replay.
/// Returns wall milliseconds; finish() is never called so nothing hits disk.
double replay_once(const Trace& trace, bool telemetry) {
  PolicyConfig cfg;
  cfg.ssd_pages = 4096;
  cfg.delta_ratio_mean = 0.25;
  const RaidGeometry geo = paper_geometry(compute_stats(trace).max_page);
  const double t0 = now_ns();
  std::unique_ptr<TelemetrySession> session;
  if (telemetry) {
    TelemetrySession::Options opts;
    opts.ops_per_bucket = std::max<std::uint64_t>(1, trace.records.size() / 32);
    session = std::make_unique<TelemetrySession>(opts);
  }
  KddCache kdd(cfg, geo);
  if (session) {
    session->attach_policy(&kdd);
    session->attach_kdd(&kdd);
  }
  EventSimulator sim(paper_sim_config(geo.num_disks), &kdd);
  if (session) {
    sim.set_request_observer([&](SimTime now, SimTime latency_us) {
      session->on_request(now, latency_us);
    });
  }
  (void)sim.run_open_loop(trace);
  return (now_ns() - t0) / 1e6;
}

/// Paired interleaved measurement for the off/on comparison. Each round runs
/// off then on back to back, so both sit in the same drift phase of a shared
/// machine and their ratio is drift-free; the median of the per-round ratios
/// then discards the rounds a scheduler hiccup distorted. (Two sequential
/// min-of-N blocks were tried first and still produced 5-10% swings: a
/// sustained background load during one block biases that side's minimum.)
struct ReplayPair {
  double off_ms = 1e18;     ///< fastest telemetry-off round (display)
  double on_ms = 1e18;      ///< fastest telemetry-on round (display)
  double overhead = 0.0;    ///< median of per-round on/off - 1
};
ReplayPair measure_replay_pair(const Trace& trace, int rounds) {
  ReplayPair r;
  std::vector<double> ratios;
  ratios.reserve(static_cast<std::size_t>(rounds));
  for (int i = 0; i < rounds; ++i) {
    const double off = replay_once(trace, false);
    const double on = replay_once(trace, true);
    r.off_ms = std::min(r.off_ms, off);
    r.on_ms = std::min(r.on_ms, on);
    ratios.push_back(on / off);
  }
  std::sort(ratios.begin(), ratios.end());
  const std::size_t n = ratios.size();
  const double median = n % 2 == 1 ? ratios[n / 2]
                                   : 0.5 * (ratios[n / 2 - 1] + ratios[n / 2]);
  r.overhead = median - 1.0;
  return r;
}

/// Cleaner-pool end-to-end measurement: a real-mode KDD replay over the
/// ConcurrentCache facade with 4 submitter threads, once with the serial
/// idle cleaner (pool = 0) and once with a 4-worker cleaner pool. Both runs
/// replay the identical trace (run_concurrent_trace partitions requests by
/// parity group, so the final state is thread-count-independent). Min-of-3
/// interleaved rounds; the speedup only gates on machines with >= 4
/// hardware threads — on smaller hosts the workers just time-slice one core
/// and the number is recorded for the report without gating.
struct PoolReplay {
  double off_ms = 1e18;  ///< serial idle cleaner
  double on_ms = 1e18;   ///< 4-worker cleaner pool
  double speedup = 0.0;
  bool gates = false;
  unsigned hw_threads = 0;
};
PoolReplay measure_pool_replay() {
  SyntheticTraceConfig tcfg = fin1_config(0.02);
  tcfg.seed = 11;
  const Trace trace = generate_synthetic_trace(tcfg);
  const RaidGeometry geo = paper_geometry(tcfg.unique_total());
  const std::uint64_t array_pages = geo.data_pages();
  const auto run_ms = [&](std::uint32_t pool_threads) {
    RaidArray array(geo);
    SsdConfig scfg;
    scfg.logical_pages = 4096;
    SsdModel ssd(scfg);
    PolicyConfig cfg;
    cfg.ssd_pages = scfg.logical_pages;
    KddCache kdd(cfg, &array, &ssd);
    ConcurrentCache cache(&kdd, &array.layout(), std::chrono::milliseconds(2),
                          pool_threads);
    const double t0 = now_ns();
    (void)run_concurrent_trace(cache, array.layout(), trace, array_pages,
                               /*threads=*/4, /*seed=*/7);
    return (now_ns() - t0) / 1e6;
  };
  PoolReplay r;
  (void)run_ms(0);  // warm caches
  for (int i = 0; i < 3; ++i) {
    r.off_ms = std::min(r.off_ms, run_ms(0));
    r.on_ms = std::min(r.on_ms, run_ms(4));
  }
  r.speedup = r.off_ms / r.on_ms;
  r.hw_threads = std::thread::hardware_concurrency();
  r.gates = r.hw_threads >= 4;
  return r;
}

/// Segment-staging commit gate: one seeded write-heavy prototype replay,
/// once with per-page cache writes and once with log-structured segment
/// staging. Both runs see the identical request stream, so the committed
/// page count matches exactly; staging must collapse those commits into
/// >= 4x fewer SSD write commands while the post-flush read-back digest
/// stays byte-identical (staging batches device commands — it must never
/// change bytes).
struct SegmentCommitRun {
  std::uint64_t write_ops = 0;        ///< host write commands to the cache SSD
  std::uint64_t pages_committed = 0;  ///< cache page commits driving them
  std::uint64_t seq_ops = 0;          ///< SsdModel sequential (vectored) commands
  std::uint64_t digest = 0;           ///< page_hash over the full read-back image
  double ms = 0.0;
};
SegmentCommitRun run_segment_commit(bool staged) {
  RaidGeometry geo;
  geo.level = RaidLevel::kRaid5;
  geo.num_disks = 5;
  geo.chunk_pages = 4;
  geo.disk_pages = 1024;
  RaidArray array(geo);
  SsdConfig scfg;
  scfg.logical_pages = 2048;
  SsdModel ssd(scfg);
  PolicyConfig cfg;
  cfg.ssd_pages = scfg.logical_pages;
  cfg.segment_staging = staged;
  KddCache kdd(cfg, &array, &ssd);
  const ContentGenerator gen(77);
  Rng rng(78);
  const Lba span = 1500;
  std::unordered_map<Lba, Page> model;
  Page buf(kPageSize);
  const double t0 = now_ns();
  for (int i = 0; i < 12000; ++i) {
    const Lba lba = rng.next_below(span);
    if (rng.next_bool(0.7)) {
      auto it = model.find(lba);
      Page data = it == model.end() ? gen.base_page(lba)
                                    : gen.mutate(it->second, 0.25, rng);
      if (kdd.write(lba, data, nullptr) != IoStatus::kOk) std::abort();
      model[lba] = std::move(data);
    } else {
      if (kdd.read(lba, buf, nullptr) != IoStatus::kOk) std::abort();
    }
  }
  kdd.flush(nullptr);
  SegmentCommitRun r;
  r.ms = (now_ns() - t0) / 1e6;
  std::uint64_t h = kern::kPageHashSeed;
  for (Lba lba = 0; lba < span; ++lba) {
    if (kdd.read(lba, buf, nullptr) != IoStatus::kOk) std::abort();
    h = kern::page_hash(h, buf);
  }
  r.digest = h;
  r.write_ops = kdd.cache_ssd().write_ops();
  r.pages_committed = kdd.cache_ssd().pages_committed();
  r.seq_ops = ssd.wear().host_write_ops_seq;
  return r;
}

/// Thread-scaling matrix for BENCH_micro.json: replay throughput at 1/2/4/8
/// submitter threads. Sync rows (qd = 0) run the blocking front door, each
/// with the serial idle cleaner (pool = 0) and with a cleaner pool sized to
/// the submitter count. Async rows run the submission-queue engine (workers
/// = submitters) at queue depth 64 and 256. The 8-thread/QD-256 async row
/// gates against the 1-thread/QD-256 row on hosts with >= 8 hardware
/// threads (elsewhere it is recorded like pool_replay); the rest of the
/// matrix is a trajectory record.
struct ScalePoint {
  unsigned threads;
  std::uint32_t pool;
  unsigned qd;  ///< 0 = sync call-and-block path
  double kops;
};
std::vector<ScalePoint> measure_concurrent_scaling() {
  SyntheticTraceConfig tcfg = fin1_config(0.01);
  tcfg.seed = 11;
  const Trace trace = generate_synthetic_trace(tcfg);
  const RaidGeometry geo = paper_geometry(tcfg.unique_total());
  const std::uint64_t array_pages = geo.data_pages();
  std::vector<ScalePoint> out;
  const auto make_cache = [&](std::uint32_t pool, auto&& body) {
    RaidArray array(geo);
    SsdConfig scfg;
    scfg.logical_pages = 4096;
    SsdModel ssd(scfg);
    PolicyConfig cfg;
    cfg.ssd_pages = scfg.logical_pages;
    KddCache kdd(cfg, &array, &ssd);
    ConcurrentCache cache(&kdd, &array.layout(), std::chrono::milliseconds(2),
                          pool);
    body(cache, array);
  };
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    for (const std::uint32_t pool : {0u, threads}) {
      make_cache(pool, [&](ConcurrentCache& cache, RaidArray& array) {
        const double t0 = now_ns();
        const ConcurrentReplayResult r = run_concurrent_trace(
            cache, array.layout(), trace, array_pages, threads, /*seed=*/7);
        const double ms = (now_ns() - t0) / 1e6;
        out.push_back({threads, pool, 0u, static_cast<double>(r.ops) / ms});
      });
    }
  }
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    for (const unsigned qd : {64u, 256u}) {
      make_cache(0, [&](ConcurrentCache& cache, RaidArray& array) {
        AsyncEngineOptions aopts;
        aopts.workers = threads;
        aopts.shard_queue_depth = qd;
        aopts.high_watermark = 4ull * threads * qd;
        aopts.low_watermark = 2ull * threads * qd;
        cache.start_async(aopts);
        const double t0 = now_ns();
        const ConcurrentReplayResult r = run_concurrent_trace_async(
            cache, array.layout(), trace, array_pages, threads, /*seed=*/7, qd);
        const double ms = (now_ns() - t0) / 1e6;
        out.push_back({threads, 0u, qd, static_cast<double>(r.ops) / ms});
      });
    }
  }
  return out;
}

// Seed-build baselines. Measured on the reference machine (x86-64, AVX2)
// from commit "partial-fault injection subsystem" with the workloads below,
// via the same minimum-of-7 methodology, before any kernel work landed.
constexpr double kBeforeXor4k = 108.0;
constexpr double kBeforeXorPages3 = 0.0;  // new kernel: no seed equivalent
constexpr double kBeforeAllZero4k = 1375.0;
constexpr double kBeforeGfMulAcc4k = 2881.0;
constexpr double kBeforeLzCompress25 = 19205.0;
constexpr double kBeforeLzDecompress = 5612.0;
constexpr double kBeforeMakeDelta = 21459.0;
constexpr double kBeforeApplyDelta = 5945.0;
constexpr double kBeforeDeltaRoundtrip = 27404.0;  // make + apply

int run(int argc, char** argv) {
  bool check = false;
  std::string json_path = "BENCH_micro.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: perf_gate [--check] [--json PATH]\n");
      return 2;
    }
  }

  // Workloads: identical to bench/micro_primitives.cpp so numbers line up.
  Page xa = random_page(6);
  const Page xb = random_page(7);
  Page x3 = Page(kPageSize);
  const Page za(kPageSize, 0);
  Page ga = random_page(8);
  const Page gb = random_page(9);
  Page ga_ref = ga;

  const ContentGenerator gen(1);
  Rng rng2(2);
  const Page lz_base = gen.base_page(0);
  const Page lz_diff = xor_pages(lz_base, gen.mutate(lz_base, 0.25, rng2));
  std::vector<std::uint8_t> lz_out;
  const auto lz_compressed = lz_compress(lz_diff);
  Page lz_plain(kPageSize);

  Rng rng4(4);
  const Page d_base = gen.base_page(0);
  const Page d_mut = gen.mutate(d_base, 0.25, rng4);
  Delta d_scratch;
  Page d_out(kPageSize);

  std::vector<BenchCase> cases;
  cases.push_back({"xor_into_4k", kBeforeXor4k, kPageSize,
                   [&] { xor_into(xa, xb); }, {}, {}});
  cases.push_back({"xor_pages3_4k", kBeforeXorPages3, kPageSize,
                   [&] { xor_pages3(x3, xa, xb); }, {}, {}});
  cases.push_back({"all_zero_4k", kBeforeAllZero4k, kPageSize, [&] {
                     if (!all_zero(za)) std::abort();
                   }, {}, {}});
  cases.push_back({"gf256_mul_acc_4k", kBeforeGfMulAcc4k, kPageSize,
                   [&] { gf256::mul_acc(ga, 0x37, gb); }, {}, {}});
  cases.push_back({"gf256_mul_acc_ref_4k", kBeforeGfMulAcc4k, kPageSize,
                   [&] { gf256::mul_acc_ref(ga_ref, 0x37, gb); }, {}, {}});
  const Page hash_page = random_page(10);
  volatile std::uint64_t hash_sink = 0;
  const double fnv1a_ns = measure_ns([&] {
    hash_sink = hash_sink ^ fnv1a_bytes(kern::kPageHashSeed, hash_page);
  });
  cases.push_back({"page_hash_4k", fnv1a_ns, kPageSize, [&] {
                     hash_sink = hash_sink ^ kern::page_hash(kern::kPageHashSeed, hash_page);
                   }, {}, {}});
  cases.push_back({"lz_compress_25pct", kBeforeLzCompress25, kPageSize,
                   [&] { lz_compress_into(lz_diff, lz_out); }, {}, {}});
  cases.push_back({"lz_decompress", kBeforeLzDecompress, kPageSize, [&] {
                     if (!lz_decompress_into(lz_compressed, lz_plain))
                       std::abort();
                   }, {}, {}});
  cases.push_back({"make_delta", kBeforeMakeDelta, kPageSize,
                   [&] { make_delta_into(d_base, d_mut, d_scratch); }, {}, {}});
  cases.push_back({"apply_delta", kBeforeApplyDelta, kPageSize, [&] {
                     apply_delta_into(d_base, d_scratch, d_out);
                   }, {}, {}});
  cases.push_back({"delta_roundtrip", kBeforeDeltaRoundtrip, kPageSize, [&] {
                     make_delta_into(d_base, d_mut, d_scratch);
                     apply_delta_into(d_base, d_scratch, d_out);
                   }, {}, {}});
  // Warm the delta scratch so apply_delta measures a valid delta.
  make_delta_into(d_base, d_mut, d_scratch);

  // Observability primitives (new in the telemetry overhaul: no seed
  // baseline). The enabled-span case bounds the ring to keep memory flat;
  // the counter is a registered handle exactly as the hot paths use them.
  obs::Counter obs_counter(&obs::MetricsRegistry::global(),
                           "kdd_perf_gate_probe_total");
  cases.push_back({"obs_counter_inc", 0.0, 0.0, [&] { obs_counter.inc(); }, {}, {}});
  cases.push_back({"obs_span_disabled", 0.0, 0.0,
                   [] { obs::SpanScope s(obs::Stage::kCacheLookup); }, {}, {}});
  // Stage spans only record under an installed (sampled) root, so the
  // enabled case keeps a root context alive across the measurement loop;
  // it therefore measures the full record path (clock read + ring append),
  // not the unsampled skip.
  static std::optional<obs::TraceContextScope> bench_root;
  cases.push_back({"obs_span_enabled", 0.0, 0.0,
                   [] { obs::SpanScope s(obs::Stage::kCacheLookup); },
                   [] {
                     obs::TraceBuffer::global().set_capacity(1u << 12);
                     obs::TraceBuffer::set_sample_period(1);
                     obs::TraceBuffer::set_enabled(true);
                     bench_root.emplace(obs::Stage::kRequest,
                                        /*always_sample=*/true);
                   },
                   [] {
                     bench_root.reset();
                     obs::TraceBuffer::set_enabled(false);
                     obs::TraceBuffer::global().clear();
                   }});

  // Continuous health engine (new in the health-engine work; no seed
  // baseline). health_record is the per-request cost the telemetry-on
  // replay pays: one rolling-ring append plus the amortized rule
  // evaluation (the 1 s sim-time cadence divides a full evaluation across
  // ~10k requests at the 100 us spacing used here). alert_eval forces the
  // full six-rule evaluation pass every call via tick(), bounding the
  // worst case the eval cadence amortizes.
  static std::optional<obs::HealthEngine> bench_health;
  static std::uint64_t bench_health_now;
  const auto health_setup = [] {
    bench_health.emplace();
    bench_health_now = 0;
    // Populate every signal so evaluation walks realistic state.
    for (int i = 0; i < 2000; ++i) {
      bench_health_now += 100;
      bench_health->observe_request(bench_health_now,
                                    i % 7 == 0 ? 30'000 : 4'000);
      if (i % 2 == 0) {
        bench_health->note_cache_hit();
      } else {
        bench_health->note_cache_miss();
      }
    }
    for (std::size_t r = 0; r < 8; ++r) {
      bench_health->observe_region_wear(r, 100.0 + 10.0 * static_cast<double>(r));
    }
  };
  const auto health_teardown = [] { bench_health.reset(); };
  cases.push_back({"health_record", 0.0, 0.0,
                   [] {
                     bench_health_now += 100;
                     bench_health->observe_request(bench_health_now, 4'000);
                   },
                   health_setup, health_teardown});
  cases.push_back({"alert_eval", 0.0, 0.0,
                   [] {
                     bench_health_now += 10;
                     bench_health->tick(bench_health_now);
                   },
                   health_setup, health_teardown});

  // Destage batching (new in the destage-pipeline overhaul; no seed
  // baseline). Both cases fold the identical 16 XOR deltas — 4 parity
  // groups x 4 dirty members — into stale parity on a 5-disk RAID-5:
  //   * serial: the legacy per-page protocol, one update_parity_rmw per
  //     delta (16 parity read/write pairs), exactly the traffic
  //     resolve_and_drop generated per old page before batching;
  //   * batch: one update_parity_rmw_batch pass (4 parity read/write pairs,
  //     one per group, all four deltas folded in between).
  // Parity content accumulates XOR garbage across iterations, which is
  // irrelevant: cost depends only on the page traffic, not the bits.
  RaidGeometry dgeo;
  dgeo.level = RaidLevel::kRaid5;
  dgeo.num_disks = 5;
  dgeo.chunk_pages = 16;
  dgeo.disk_pages = 256;
  RaidArray destage_array(dgeo);
  constexpr std::size_t kDestageGroups = 4;
  constexpr std::size_t kDeltasPerGroup = 4;
  std::vector<Page> destage_diffs;
  destage_diffs.reserve(kDestageGroups * kDeltasPerGroup);
  for (std::size_t i = 0; i < kDestageGroups * kDeltasPerGroup; ++i) {
    destage_diffs.push_back(random_page(100 + i));
  }
  std::vector<std::vector<GroupDelta>> destage_deltas(kDestageGroups);
  std::vector<GroupParityUpdate> destage_updates;
  for (std::size_t g = 0; g < kDestageGroups; ++g) {
    for (std::size_t k = 0; k < kDeltasPerGroup; ++k) {
      destage_deltas[g].push_back({static_cast<std::uint32_t>(k),
                                   &destage_diffs[g * kDeltasPerGroup + k]});
    }
    GroupParityUpdate up;
    up.group = static_cast<GroupId>(g);
    up.deltas = destage_deltas[g];
    destage_updates.push_back(up);
  }
  cases.push_back({"destage_rmw_serial_4g", 0.0,
                   static_cast<double>(kDestageGroups * kDeltasPerGroup) * kPageSize,
                   [&] {
                     for (std::size_t g = 0; g < kDestageGroups; ++g) {
                       for (std::size_t k = 0; k < kDeltasPerGroup; ++k) {
                         if (destage_array.update_parity_rmw(
                                 static_cast<GroupId>(g),
                                 std::span<const GroupDelta>(&destage_deltas[g][k], 1)) !=
                             IoStatus::kOk) {
                           std::abort();
                         }
                       }
                     }
                   }, {}, {}});
  cases.push_back({"destage_batch_4g", 0.0,
                   static_cast<double>(kDestageGroups * kDeltasPerGroup) * kPageSize,
                   [&] {
                     if (destage_array.update_parity_rmw_batch(destage_updates) !=
                         IoStatus::kOk) {
                       std::abort();
                     }
                   }, {}, {}});

  // End-to-end observability overhead on the fig9 replay hot path: the same
  // KDD/Fin1 open-loop replay with the telemetry stack off vs on. The "on"
  // side includes the continuous health engine and armed flight recorder
  // (TelemetrySession defaults), so the 5% bound covers them. A tiny fixed
  // scale keeps the gate fast; the median of 101 paired rounds makes the
  // ratio robust against scheduler noise (see measure_replay_pair). The
  // ~40 ms arms beat fewer, longer rounds at equal total runtime: a
  // scheduler interruption lands inside fewer rounds, and the median sees
  // twice the samples (per-round session setup is ~7 us, so shorter arms
  // do not distort the ratio).
  //
  // Measured first, before the micro benches: those churn the heap and park
  // static bench engines in cache, which inflates the paired replay by about
  // a point of apparent overhead. Clean process state is also how the real
  // consumer (bench/fig9_trace_replay) runs the instrumented replay.
  const Trace gate_trace = generate_preset("Fin1", 0.005);
  (void)replay_once(gate_trace, false);  // warm page/code caches
  (void)replay_once(gate_trace, true);
  const ReplayPair replay = measure_replay_pair(gate_trace, 101);

  std::printf("kernel tier: %s (widest supported: %s)\n\n",
              kern::tier_name(kern::active_tier()),
              kern::tier_name(kern::widest_supported_tier()));
  std::printf("%-22s %12s %12s %9s %9s\n", "benchmark", "before ns", "after ns",
              "speedup", "GiB/s");

  struct Result {
    const char* name;
    double before_ns, after_ns, speedup, gibps;
  };
  std::vector<Result> results;
  for (const BenchCase& c : cases) {
    if (c.setup) c.setup();
    const double after = measure_ns(c.fn);
    if (c.teardown) c.teardown();
    const double speedup = c.before_ns > 0 ? c.before_ns / after : 0.0;
    const double gibps =
        c.bytes > 0 ? c.bytes / after * 1e9 / (1024.0 * 1024.0 * 1024.0) : 0.0;
    results.push_back({c.name, c.before_ns, after, speedup, gibps});
    if (c.before_ns > 0) {
      std::printf("%-22s %12.0f %12.1f %8.2fx %9.2f\n", c.name, c.before_ns,
                  after, speedup, gibps);
    } else {
      std::printf("%-22s %12s %12.1f %9s %9.2f\n", c.name, "-", after, "-",
                  gibps);
    }
  }

  double mul_speedup = 0.0;
  double page_hash_speedup = 0.0;
  double roundtrip_improvement = 0.0;
  double destage_serial_ns = 0.0;
  double destage_batch_ns = 0.0;
  for (const Result& r : results) {
    if (std::strcmp(r.name, "gf256_mul_acc_4k") == 0) mul_speedup = r.speedup;
    if (std::strcmp(r.name, "page_hash_4k") == 0) page_hash_speedup = r.speedup;
    if (std::strcmp(r.name, "delta_roundtrip") == 0) {
      roundtrip_improvement = 1.0 - r.after_ns / r.before_ns;
    }
    if (std::strcmp(r.name, "destage_rmw_serial_4g") == 0) {
      destage_serial_ns = r.after_ns;
    }
    if (std::strcmp(r.name, "destage_batch_4g") == 0) {
      destage_batch_ns = r.after_ns;
    }
  }
  const double destage_speedup =
      destage_batch_ns > 0 ? destage_serial_ns / destage_batch_ns : 0.0;

  const double replay_off_ms = replay.off_ms;
  const double replay_on_ms = replay.on_ms;
  const double obs_overhead = replay.overhead;
  const bool telemetry_gates = std::thread::hardware_concurrency() >= 2;
  std::printf("\nfig9-style replay: telemetry off %.1f ms, on %.1f ms, "
              "median per-round overhead %.1f%% (%s)\n",
              replay_off_ms, replay_on_ms, obs_overhead * 100.0,
              telemetry_gates ? "gate active: need <= 5.0%"
                              : "recorded, not gated: single core");

  // Segment-staging commit efficiency: identical write stream, off vs on.
  const SegmentCommitRun seg_off = run_segment_commit(false);
  const SegmentCommitRun seg_on = run_segment_commit(true);
  const double seg_reduction =
      seg_on.write_ops > 0
          ? static_cast<double>(seg_off.write_ops) / static_cast<double>(seg_on.write_ops)
          : 0.0;
  const bool seg_digests_match =
      seg_off.digest == seg_on.digest &&
      seg_off.pages_committed == seg_on.pages_committed;
  std::printf("segment staging: %llu committed pages -> %llu write cmds "
              "unstaged vs %llu staged (%llu sequential), %.1fx fewer cmds, "
              "read-back digests %s (%.1f ms vs %.1f ms)\n",
              static_cast<unsigned long long>(seg_off.pages_committed),
              static_cast<unsigned long long>(seg_off.write_ops),
              static_cast<unsigned long long>(seg_on.write_ops),
              static_cast<unsigned long long>(seg_on.seq_ops),
              seg_reduction, seg_digests_match ? "match" : "DIFFER",
              seg_off.ms, seg_on.ms);

  // Cleaner-pool end-to-end replay (4 submitters, pool 0 vs 4 workers).
  const PoolReplay pool = measure_pool_replay();
  std::printf("cleaner-pool replay (4 submitters): serial cleaner %.1f ms, "
              "4-worker pool %.1f ms, speedup %.2fx (%u hw threads, gate %s)\n",
              pool.off_ms, pool.on_ms, pool.speedup, pool.hw_threads,
              pool.gates ? "active: need >= 1.50x" : "skipped: < 4 cores");

  // Thread-scaling matrix: sync rows recorded, the async 8-thread/QD-256
  // row gated against 1-thread/QD-256 on >= 8-hw-thread hosts.
  const std::vector<ScalePoint> scaling = measure_concurrent_scaling();
  std::printf("\nconcurrent replay scaling (threads/pool|qd -> kops/s):");
  for (const ScalePoint& p : scaling) {
    if (p.qd == 0) {
      std::printf(" %u/%u=%.1f", p.threads, p.pool, p.kops);
    } else {
      std::printf(" %uq%u=%.1f", p.threads, p.qd, p.kops);
    }
  }
  std::printf("\n");
  double async_1t_kops = 0.0;
  double async_8t_kops = 0.0;
  for (const ScalePoint& p : scaling) {
    if (p.qd == 256 && p.threads == 1) async_1t_kops = p.kops;
    if (p.qd == 256 && p.threads == 8) async_8t_kops = p.kops;
  }
  const double scaling_speedup =
      async_1t_kops > 0 ? async_8t_kops / async_1t_kops : 0.0;
  const bool scaling_gates = std::thread::hardware_concurrency() >= 8;
  std::printf("async scaling QD=256: 1 thread %.1f kops/s, 8 threads %.1f "
              "kops/s, speedup %.2fx (%s)\n",
              async_1t_kops, async_8t_kops, scaling_speedup,
              scaling_gates ? "gate active: need >= 3.00x"
                            : "recorded, not gated: < 8 cores");

  const bool pass = mul_speedup >= 3.0 && page_hash_speedup >= 8.0 &&
                    roundtrip_improvement >= 0.30 &&
                    (!telemetry_gates || obs_overhead <= 0.05) &&
                    destage_speedup >= 2.0 &&
                    seg_reduction >= 4.0 && seg_digests_match &&
                    (!pool.gates || pool.speedup >= 1.5) &&
                    (!scaling_gates || scaling_speedup >= 3.0);
  std::printf("\ngate: gf256_mul_acc speedup %.2fx (need >= 3.00x), "
              "page_hash speedup over byte-serial FNV-1a %.2fx (need >= 8.00x), "
              "delta_roundtrip %.1f%% fewer ns/op (need >= 30.0%%), "
              "telemetry overhead %.1f%% (%s), "
              "destage batch speedup %.2fx (need >= 2.00x), "
              "segment commit %.2fx fewer cmds (need >= 4.00x, digests %s), "
              "pool replay speedup %.2fx (%s), "
              "concurrent scaling %.2fx (%s) -> %s\n",
              mul_speedup, page_hash_speedup, roundtrip_improvement * 100.0,
              obs_overhead * 100.0,
              telemetry_gates ? "need <= 5.0%" : "recorded, not gated",
              destage_speedup, seg_reduction,
              seg_digests_match ? "match" : "DIFFER", pool.speedup,
              pool.gates ? "need >= 1.50x" : "recorded, not gated",
              scaling_speedup,
              scaling_gates ? "need >= 3.00x" : "recorded, not gated",
              pass ? "PASS" : "FAIL");

  if (FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n");
    std::fprintf(f,
                 "  \"schema\": \"kdd-bench-micro-v1\",\n"
                 "  \"note\": \"before = pre-overhaul seed build on the "
                 "reference machine; after = this build. ns/op is "
                 "minimum-of-7 over ~2ms batches; regenerate with "
                 "bench/perf_gate --json BENCH_micro.json\",\n");
    std::fprintf(f, "  \"kernel_tier\": \"%s\",\n",
                 kern::tier_name(kern::active_tier()));
    std::fprintf(f, "  \"benchmarks\": {\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      // No seed baseline (before_ns == 0) means "speedup" is undefined, not
      // zero — emit null so downstream tooling can't mistake it for a 0.00x
      // regression.
      char speedup_field[32];
      if (r.before_ns > 0) {
        std::snprintf(speedup_field, sizeof speedup_field, "%.2f", r.speedup);
      } else {
        std::snprintf(speedup_field, sizeof speedup_field, "null");
      }
      std::fprintf(f,
                   "    \"%s\": {\"before_ns\": %.0f, \"after_ns\": %.1f, "
                   "\"speedup\": %s, \"gib_per_s\": %.2f}%s\n",
                   r.name, r.before_ns, r.after_ns, speedup_field, r.gibps,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f,
                 "  \"replay_overhead\": {\"telemetry_off_ms\": %.2f, "
                 "\"telemetry_on_ms\": %.2f, \"overhead\": %.4f, "
                 "\"gated\": %s},\n",
                 replay_off_ms, replay_on_ms, obs_overhead,
                 telemetry_gates ? "true" : "false");
    std::fprintf(f,
                 "  \"segment_commit\": {\"pages_committed\": %llu, "
                 "\"unstaged_write_ops\": %llu, \"staged_write_ops\": %llu, "
                 "\"staged_seq_ops\": %llu, \"ops_reduction\": %.2f, "
                 "\"digests_match\": %s, \"unstaged_ms\": %.2f, "
                 "\"staged_ms\": %.2f},\n",
                 static_cast<unsigned long long>(seg_off.pages_committed),
                 static_cast<unsigned long long>(seg_off.write_ops),
                 static_cast<unsigned long long>(seg_on.write_ops),
                 static_cast<unsigned long long>(seg_on.seq_ops),
                 seg_reduction, seg_digests_match ? "true" : "false",
                 seg_off.ms, seg_on.ms);
    std::fprintf(f,
                 "  \"pool_replay\": {\"serial_cleaner_ms\": %.2f, "
                 "\"pool4_ms\": %.2f, \"speedup\": %.2f, "
                 "\"hardware_threads\": %u, \"gated\": %s},\n",
                 pool.off_ms, pool.on_ms, pool.speedup, pool.hw_threads,
                 pool.gates ? "true" : "false");
    std::fprintf(f, "  \"concurrent_scaling\": [\n");
    for (std::size_t i = 0; i < scaling.size(); ++i) {
      const ScalePoint& p = scaling[i];
      std::fprintf(f,
                   "    {\"threads\": %u, \"cleaner_pool\": %u, "
                   "\"queue_depth\": %u, \"mode\": \"%s\", "
                   "\"kops_per_s\": %.1f}%s\n",
                   p.threads, p.pool, p.qd, p.qd == 0 ? "sync" : "async",
                   p.kops, i + 1 < scaling.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"gate\": {\"gf256_mul_acc_min_speedup\": 3.0, "
                 "\"page_hash_min_speedup\": 8.0, "
                 "\"delta_roundtrip_min_improvement\": 0.30, "
                 "\"telemetry_max_overhead\": 0.05, "
                 "\"destage_batch_min_speedup\": 2.0, "
                 "\"segment_commit_min_reduction\": 4.0, "
                 "\"pool_replay_min_speedup\": 1.5, "
                 "\"concurrent_scaling_min_speedup\": 3.0, "
                 "\"gf256_mul_acc_speedup\": %.2f, "
                 "\"page_hash_speedup\": %.2f, "
                 "\"delta_roundtrip_improvement\": %.3f, "
                 "\"telemetry_overhead\": %.4f, "
                 "\"telemetry_gated\": %s, "
                 "\"destage_batch_speedup\": %.2f, "
                 "\"segment_commit_reduction\": %.2f, "
                 "\"segment_digests_match\": %s, "
                 "\"pool_replay_speedup\": %.2f, "
                 "\"pool_replay_gated\": %s, "
                 "\"concurrent_scaling_speedup\": %.2f, "
                 "\"concurrent_scaling_gated\": %s, \"pass\": %s}\n",
                 mul_speedup, page_hash_speedup, roundtrip_improvement, obs_overhead,
                 telemetry_gates ? "true" : "false",
                 destage_speedup, seg_reduction,
                 seg_digests_match ? "true" : "false",
                 pool.speedup, pool.gates ? "true" : "false",
                 scaling_speedup, scaling_gates ? "true" : "false",
                 pass ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 2;
  }
  return check && !pass ? 1 : 0;
}

}  // namespace
}  // namespace kdd

int main(int argc, char** argv) { return kdd::run(argc, argv); }
