// Multi-threaded replay throughput for the ConcurrentCache facade.
//
// Replays a synthetic OLTP-style trace through a real-mode KDD cache behind
// the striped-front-lock facade with 1..8 submitter threads. Each thread
// owns a disjoint subset of parity groups (see run_concurrent_trace), so the
// final logical state is byte-identical at every thread count — the digest
// column proves it. Throughput is bounded by the inner policy mutex (the
// policies themselves are single-threaded by design); the point of the
// striping is contention-free per-group ordering, not parallel policy code.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "blockdev/ssd_model.hpp"
#include "common/table.hpp"
#include "raid/raid_array.hpp"
#include "trace/generators.hpp"

namespace kdd {
namespace {

int run() {
  const double scale = experiment_scale(0.05);
  bench::banner("bench_concurrent", "multi-threaded replay over ConcurrentCache",
                scale);

  SyntheticTraceConfig tcfg = fin1_config(scale);
  tcfg.seed = 11;
  const Trace trace = generate_synthetic_trace(tcfg);
  const RaidGeometry geo = paper_geometry(tcfg.unique_total());
  const std::uint64_t array_pages = geo.data_pages();

  TextTable table({"threads", "ops", "wall ms", "kops/s", "cleaner", "digest"});
  std::uint64_t digest1 = 0;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    RaidArray array(geo);
    SsdConfig scfg;
    scfg.logical_pages = 4096;
    SsdModel ssd(scfg);
    PolicyConfig cfg;
    cfg.ssd_pages = scfg.logical_pages;
    KddCache kdd(cfg, &array, &ssd);
    ConcurrentCache cache(&kdd, &array.layout(), std::chrono::milliseconds(5));

    const auto t0 = std::chrono::steady_clock::now();
    const ConcurrentReplayResult r =
        run_concurrent_trace(cache, array.layout(), trace, array_pages,
                             threads, /*seed=*/7);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    const std::uint64_t digest = replay_readback_digest(cache, array_pages);
    if (threads == 1) digest1 = digest;

    char dg[24];
    std::snprintf(dg, sizeof dg, "%016llx",
                  static_cast<unsigned long long>(digest));
    table.add_row({std::to_string(threads), std::to_string(r.ops),
                   TextTable::num(ms, 1),
                   TextTable::num(static_cast<double>(r.ops) / ms, 1),
                   std::to_string(cache.cleaner_passes()), dg});
    if (digest != digest1) {
      std::fprintf(stderr, "FATAL: digest diverged at %u threads\n", threads);
      return 1;
    }
  }
  table.print();
  std::printf("\nAll digests identical: multi-threaded replay reproduces the"
              " single-threaded final state.\n");
  return 0;
}

}  // namespace
}  // namespace kdd

int main() { return kdd::run(); }
