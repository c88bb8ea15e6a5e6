// Experiment harness: policy factory, counter-mode trace driver, and the
// default configurations shared by the per-figure bench binaries.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/policy.hpp"
#include "kdd/concurrent.hpp"
#include "sim/event_sim.hpp"
#include "trace/trace.hpp"

namespace kdd {

enum class PolicyKind { kNossd, kWT, kWA, kLeavO, kKdd, kWB };

std::string policy_kind_name(PolicyKind kind);

/// Counter-mode policy (Section IV-A methodology).
std::unique_ptr<CachePolicy> make_policy(PolicyKind kind, const PolicyConfig& config,
                                         const RaidGeometry& geo);

/// Prototype-mode policy over a real array and SSD.
std::unique_ptr<CachePolicy> make_policy(PolicyKind kind, const PolicyConfig& config,
                                         RaidArray* array, SsdModel* ssd);

/// RAID-5 geometry matching the paper's testbed shape (5 disks, 64 KiB
/// chunks) with per-disk capacity sized so the array holds pages
/// [0, max_page].
RaidGeometry paper_geometry(Lba max_page);

/// Feeds the whole trace through the policy (counter mode, no timing),
/// splitting multi-page records, then flushes. Returns the final stats.
CacheStats run_counter_trace(CachePolicy& policy, const Trace& trace,
                             std::uint64_t array_pages);

/// Default timing configuration for the timed experiments (Section IV-B).
SimConfig paper_sim_config(std::uint32_t num_disks);

// ---------------------------------------------------------------------------
// Multi-threaded deterministic replay (real-mode policies behind a
// ConcurrentCache). Ops are partitioned across submitter threads by parity
// group, so every LBA's requests stay in trace order on one thread and the
// final *logical* state (array media + readback through the cache) is
// byte-identical for any thread count. See docs/performance.md.
// ---------------------------------------------------------------------------

/// Deterministic page image for write number `version` to `lba` under
/// `seed`. A low-entropy body with a high-entropy head: distinct versions
/// differ everywhere, but version-to-version deltas stay LZ-compressible the
/// way the paper's content-locality assumption expects.
void fill_replay_page(Lba lba, std::uint64_t version, std::uint64_t seed,
                      std::span<std::uint8_t> out);

struct ConcurrentReplayResult {
  CacheStats stats;                   ///< Policy stats after the final flush.
  ConcurrentCache::FrontStats front;  ///< Facade front-door counters.
  std::uint64_t ops = 0;              ///< Page-granular requests replayed.
};

/// Replays `trace` through `cache` using `threads` submitter threads. Write
/// payloads come from fill_replay_page; multi-page records are split into
/// page requests, each mapped to the thread owning its parity group
/// (`layout.group_of(lba) % threads`). Flushes and returns final stats.
ConcurrentReplayResult run_concurrent_trace(ConcurrentCache& cache,
                                            const RaidLayout& layout,
                                            const Trace& trace,
                                            std::uint64_t array_pages,
                                            unsigned threads, std::uint64_t seed);

/// kern::page_hash digest of the logical address space [0, array_pages)
/// read back through the cache — the "byte-identical final state" check for
/// the multi-threaded replay mode.
std::uint64_t replay_readback_digest(ConcurrentCache& cache,
                                     std::uint64_t array_pages);

/// KDD_SCALE's value parsed strictly: a finite decimal number in (0, 1] with
/// nothing after it, else nullopt.
std::optional<double> parse_experiment_scale(const char* text);

/// KDD_SWEEP_THREADS's value parsed strictly: a decimal integer >= 1 with
/// nothing after it, capped at `hw_threads` (at least 1), else nullopt.
std::optional<std::size_t> parse_sweep_threads(const char* text, unsigned hw_threads);

/// Experiment scale factor: KDD_SCALE from the environment, `fallback` when
/// it is unset or empty. Shrinks trace footprints/request counts
/// proportionally so benches finish quickly; EXPERIMENTS.md records the
/// scale each table was produced at. A malformed value prints a message and
/// exits 2.
double experiment_scale(double fallback = 0.25);

/// Sweep-point parallelism of the figure benches: KDD_SWEEP_THREADS from the
/// environment, capped at the host's hardware threads; 1 (fully serial)
/// when it is unset or empty. A malformed value prints a message and exits 2.
std::size_t sweep_threads();

/// The three content-locality levels the paper evaluates (KDD-50 %, -25 %,
/// -12 % mean delta compression ratios).
inline constexpr double kLocalityLevels[3] = {0.50, 0.25, 0.12};

}  // namespace kdd
