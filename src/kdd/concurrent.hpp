// Thread-safe cache facade with a real background cleaning thread.
//
// The paper's prototype runs parity updating / page reclaiming "in a
// background cleaning thread ... triggered by several system events"
// (Section III-D). This facade provides exactly that for any CachePolicy:
// callers issue read/write/flush from any thread; a dedicated cleaner thread
// wakes periodically and, when the cache has been idle long enough, runs the
// policy's on_idle() pass (parity updates, reclamation).
//
// Locking model (two tiers, see docs/performance.md):
//   * A striped front lock keyed by parity group. Requests to the same
//     stripe serialise against each other *before* touching the policy, so
//     per-group request order is a total order no matter how many submitter
//     threads there are — the property the deterministic multi-threaded
//     replay mode relies on. Requests to different stripes only contend on
//     the inner policy mutex.
//   * One inner mutex serialises policy access — the policies' in-memory
//     structures (primary map, NVRAM buffers) are small compared to device
//     I/O, so a single lock matches how the kernel prototype serialises its
//     map updates. The cleaner competes for the same lock and therefore
//     never races request processing.
//
// Lock order is always stripe -> policy; the cleaner takes only the policy
// mutex. The idle clock and the front-door counters are atomics so neither
// the hot request path nor stats() takes any extra lock for them.
//
// On write hits the front door splits the request through the policy's
// SpeculativeWriteSource hook when it implements one (kdd/request_engine.hpp):
// snapshot the delta base under the policy mutex, LZ-compress the delta with
// the mutex RELEASED (only the request's stripe lock held), then revalidate
// and commit under the mutex. The compression is the dominant per-request
// CPU cost, so this is the part of a write that overlaps across submitters.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "cache/policy.hpp"
#include "common/bytes.hpp"
#include "kdd/request_engine.hpp"
#include "raid/layout.hpp"

namespace kdd {

class ConcurrentCache {
 public:
  /// Number of front-lock stripes. Parity groups hash onto stripes, so two
  /// requests contend at the front door only when their groups collide
  /// modulo this. Power of two; 16 comfortably exceeds the core counts the
  /// replay harness drives.
  static constexpr std::size_t kStripes = 16;

  /// Lock-free front-door counters (sampled without the policy mutex).
  /// Merged from per-stripe shards, so hot-path recording never shares a
  /// cache line across stripes and nothing is dropped under contention.
  struct FrontStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t read_errors = 0;   ///< non-OK statuses returned to callers
    std::uint64_t write_errors = 0;
    std::uint64_t flushes = 0;
  };

  /// `policy` is not owned and must outlive the facade. Front locks are
  /// keyed by `layout->group_of(lba)` so every request touching one parity
  /// group funnels through one stripe; `layout` is not owned either.
  /// `idle_wakeup` is the cleaner's polling period; an idle pass runs when
  /// no request arrived for one full period.
  ConcurrentCache(CachePolicy* policy, const RaidLayout* layout,
                  std::chrono::milliseconds idle_wakeup =
                      std::chrono::milliseconds(50));

  ~ConcurrentCache();

  ConcurrentCache(const ConcurrentCache&) = delete;
  ConcurrentCache& operator=(const ConcurrentCache&) = delete;

  IoStatus read(Lba lba, std::span<std::uint8_t> out);
  IoStatus write(Lba lba, std::span<const std::uint8_t> data);

  /// Drains all deferred state (blocking): the policy's own flush.
  void flush();

  /// Online disk-failure handler: under the policy mutex, hands the failure
  /// to the policy's rebuild engine, whose stripe barrier then sees a
  /// settled dirty-group map. Requires a KddCache policy with a bound
  /// RebuildEngine. Returns what the engine's on_disk_failure returned
  /// (false: no spare, array stays degraded).
  bool handle_disk_failure_online(std::uint32_t disk);

  /// Exact policy stats (takes the policy mutex; waits for in-flight
  /// requests). Also refreshes the lock-free snapshot below.
  CacheStats stats() const;

  /// Last published policy stats — refreshed by every cleaner idle pass,
  /// flush() and stats() call — WITHOUT touching the policy mutex, so
  /// telemetry can poll it while requests are in flight. Values trail the
  /// exact stats by at most one cleaner period.
  CacheStats stats_snapshot() const;

  /// Front-door request counters, merged across the per-stripe shards
  /// (relaxed atomic reads; never blocks on the policy).
  FrontStats front_stats() const;

  /// Number of idle passes the cleaner has run.
  std::uint64_t cleaner_passes() const { return cleaner_passes_.load(); }

 private:
  /// Per-stripe front-door counters, cache-line separated so the 16 stripes
  /// never false-share while recording.
  struct alignas(64) StripeShard {
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> writes{0};
    std::atomic<std::uint64_t> read_errors{0};
    std::atomic<std::uint64_t> write_errors{0};
  };

  void cleaner_main();
  std::size_t stripe_of(Lba lba) const;
  void touch_idle_clock();
  /// Copies the policy's stats into the lock-free snapshot slot. Caller must
  /// hold mu_.
  void publish_snapshot_locked() const;

  CachePolicy* policy_;
  const RaidLayout* layout_;
  /// The policy's speculative-write hook (null: no speculation). Resolved
  /// once at construction; KddCache implements it in prototype mode.
  SpeculativeWriteSource* spec_ = nullptr;
  const std::chrono::milliseconds idle_wakeup_;

  // Front tier: striped by parity group.
  std::array<std::mutex, kStripes> stripe_mu_;
  std::array<StripeShard, kStripes> shards_;
  std::atomic<std::uint64_t> flushes_{0};

  // Published-stats slot: written under snap_mu_ by whoever holds mu_,
  // read by stats_snapshot() with only snap_mu_ (policy mutex never needed).
  mutable std::mutex snap_mu_;
  mutable CacheStats last_snapshot_;

  // Inner tier: the policy mutex (also guards stop_ for the cleaner's cv).
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;

  // Idle clock: steady_clock ticks of the most recent request, updated with
  // a relaxed store on the hot path and read by the cleaner without mu_.
  std::atomic<std::chrono::steady_clock::rep> last_request_ns_;

  std::atomic<std::uint64_t> cleaner_passes_{0};

  std::thread cleaner_;  // last member: starts after everything is ready
};

}  // namespace kdd
