// kddctl: a small interactive/scriptable front end to the user-space KDD
// stack — the closest analogue to poking the paper's kernel prototype from
// a shell. Commands arrive on stdin (or from a script via redirection):
//
//   write <lba> <seed>      write a deterministic page to <lba>
//   update <lba> <ratio%>   mutate the page at <lba> with content locality
//   read <lba>              read and fingerprint the page at <lba>
//   verify                  re-read every written page and check contents
//   stats                   Prometheus snapshot of the live metrics registry
//                           + segment staging summary (fill, seals, WA gauge)
//   health                  health engine JSON (SLO windows + alert table)
//   alerts                  one line per burn-rate rule (state, fires, value)
//   dump [path]             dump the flight recorder (default flight.json)
//   flush                   run the cleaner to completion
//   fail-disk <i>           fail disk i and run KDD's recovery protocol
//   fail-ssd                fail the cache device (resync + cold restart)
//   crash                   power failure: rebuild from metadata log + NVRAM
//   scrub                   verify parity of every stripe
//   quit
//
// The session runs the continuous health engine and flight recorder: every
// data-path command feeds the rolling SLO windows (clocked 1 ms of sim time
// per operation, latencies measured in wall microseconds), so health/alerts
// reflect the commands you just ran and dump captures their event trail.
//
// Example session:  printf 'write 5 1\nupdate 5 20\nread 5\nflush\nscrub\n' | kddctl
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>

#include "blockdev/ssd_model.hpp"
#include "cache/backend.hpp"
#include "cache/segment.hpp"
#include "common/stats.hpp"
#include "compress/content.hpp"
#include "kdd/kdd_cache.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "raid/raid_array.hpp"

namespace {

using namespace kdd;

struct Controller {
  Controller()
      : array(make_geo()), ssd(make_ssd()), nvram(kPageSize, 255), gen(1234) {
    reset_cache(false);
    obs::HealthEngine::install(&health);
    obs::FlightRecorder::set_enabled(true);
  }
  ~Controller() { obs::FlightRecorder::set_enabled(false); }

  /// Runs one data-path operation: 1 ms of sim time per op keeps the rolling
  /// windows deterministic in op counts; the latency fed to the SLO tracker
  /// is the wall time the operation actually took.
  template <typename Fn>
  IoStatus timed_op(Fn&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    const IoStatus st = fn();
    const auto us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    health.observe_request(++ops * 1000, us);
    return st;
  }

  static RaidGeometry make_geo() {
    RaidGeometry geo;
    geo.level = RaidLevel::kRaid5;
    geo.num_disks = 5;
    geo.chunk_pages = 16;
    geo.disk_pages = 8192;
    return geo;
  }
  static SsdConfig make_ssd() {
    SsdConfig cfg;
    cfg.logical_pages = 4096;
    return cfg;
  }

  void reset_cache(bool recover) {
    PolicyConfig cfg;
    cfg.ssd_pages = 4096;
    // Segment staging on: commits accumulate in the RAM segment and hit the
    // SSD as sealed sequential batches, so 'stats' shows the fill/seal/WA
    // gauges moving as you type.
    cfg.segment_staging = true;
    // Adaptive DAZ/DEZ boundary on: the cap on DEZ pages follows the update
    // compressibility — 'stats' shows the capacity line moving.
    cfg.adaptive_boundary = true;
    kdd = std::make_unique<KddCache>(cfg, &array, &ssd, &nvram, recover);
  }

  std::uint64_t fingerprint(const Page& p) const {
    std::uint64_t h = 1469598103934665603ull;
    for (const std::uint8_t b : p) h = (h ^ b) * 1099511628211ull;
    return h;
  }

  RaidArray array;
  SsdModel ssd;
  NvramState nvram;
  ContentGenerator gen;
  Rng rng{99};
  std::unique_ptr<KddCache> kdd;
  std::unordered_map<Lba, Page> truth;
  obs::HealthEngine health;
  std::uint64_t ops = 0;
};

}  // namespace

int main() {
  Controller ctl;
  std::printf("kddctl: RAID-5 (5 disks) + 16 MiB SSD cache + KDD. 'help' for commands.\n");
  std::string line;
  char buf[256];
  while (std::fgets(buf, sizeof buf, stdin)) {
    std::istringstream in(buf);
    std::string cmd;
    if (!(in >> cmd)) continue;

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "help") {
      std::printf("write <lba> <seed> | update <lba> <ratio%%> | read <lba> | verify |\n"
                  "stats | health | alerts | dump [path] | flush | fail-disk <i> |\n"
                  "fail-ssd | crash | scrub | quit\n");
    } else if (cmd == "write") {
      Lba lba = 0;
      std::uint64_t seed = 0;
      in >> lba >> seed;
      Page p = ContentGenerator(seed).base_page(lba);
      if (ctl.timed_op([&] { return ctl.kdd->write(lba, p); }) ==
          IoStatus::kOk) {
        ctl.truth[lba] = std::move(p);
        std::printf("wrote page %llu\n", static_cast<unsigned long long>(lba));
      } else {
        std::printf("write FAILED\n");
      }
    } else if (cmd == "update") {
      Lba lba = 0;
      double ratio = 20;
      in >> lba >> ratio;
      const auto it = ctl.truth.find(lba);
      if (it == ctl.truth.end()) {
        std::printf("page %llu was never written\n", static_cast<unsigned long long>(lba));
        continue;
      }
      Page p = ctl.gen.mutate(it->second, ratio / 100.0, ctl.rng);
      if (ctl.timed_op([&] { return ctl.kdd->write(lba, p); }) ==
          IoStatus::kOk) {
        it->second = std::move(p);
        std::printf("updated page %llu (~%.0f%% delta)\n",
                    static_cast<unsigned long long>(lba), ratio);
      }
    } else if (cmd == "read") {
      Lba lba = 0;
      in >> lba;
      Page p = make_page();
      if (ctl.timed_op([&] { return ctl.kdd->read(lba, p); }) !=
          IoStatus::kOk) {
        std::printf("read FAILED\n");
        continue;
      }
      const auto it = ctl.truth.find(lba);
      std::printf("page %llu fp=%016llx %s\n", static_cast<unsigned long long>(lba),
                  static_cast<unsigned long long>(ctl.fingerprint(p)),
                  it == ctl.truth.end()        ? ""
                  : it->second == p            ? "(matches truth)"
                                               : "(MISMATCH!)");
    } else if (cmd == "verify") {
      std::uint64_t bad = 0;
      Page p = make_page();
      for (const auto& [lba, page] : ctl.truth) {
        if (ctl.timed_op([&] { return ctl.kdd->read(lba, p); }) !=
                IoStatus::kOk ||
            p != page) {
          ++bad;
        }
      }
      std::printf("verify: %zu pages, %llu mismatches\n", ctl.truth.size(),
                  static_cast<unsigned long long>(bad));
    } else if (cmd == "stats") {
      // The real metrics snapshot — same bytes a scraper would get from
      // /metrics — instead of a hand-picked printf subset. The registry
      // already carries the cache/wear/health series the old format showed.
      std::fputs(
          obs::prometheus_text(obs::MetricsRegistry::global().snapshot())
              .c_str(),
          stdout);
      // Human-readable segment staging summary on top of the raw registry:
      // open-segment fill, seals so far, and the write-amplification gauge
      // (SSD write commands per 1000 committed pages; 1000 = unstaged).
      CacheSsd& cache = ctl.kdd->cache_ssd();
      const SegmentStats& seg = cache.segment_stats();
      const SegmentStager* stager = cache.stager();
      const std::uint64_t seg_pages =
          stager != nullptr ? stager->config().segment_pages : 0;
      std::printf(
          "# segment staging: fill %zu/%llu pages, %llu seals (%llu forced), "
          "%.1f write cmds per kilopage committed\n",
          stager != nullptr ? stager->live_pages() : std::size_t{0},
          static_cast<unsigned long long>(seg_pages),
          static_cast<unsigned long long>(seg.seals),
          static_cast<unsigned long long>(seg.forced_seals),
          cache.pages_committed() > 0
              ? 1000.0 * static_cast<double>(cache.write_ops()) /
                    static_cast<double>(cache.pages_committed())
              : 0.0);
      // Delta-zone capacity: occupancy vs the adaptive boundary, live/dead
      // packed bytes (dead = holes left by superseded deltas), and the spare
      // pages currently absorbing destage bursts.
      std::printf(
          "# dez capacity: %llu/%llu pages (boundary), %llu live B, "
          "%llu dead B, %llu spare pages, %llu boundary moves\n",
          static_cast<unsigned long long>(ctl.kdd->dez_pages()),
          static_cast<unsigned long long>(ctl.kdd->dez_boundary_pages()),
          static_cast<unsigned long long>(ctl.kdd->dez_live_bytes()),
          static_cast<unsigned long long>(ctl.kdd->dez_dead_bytes()),
          static_cast<unsigned long long>(ctl.kdd->elastic_spare_pages()),
          static_cast<unsigned long long>(ctl.kdd->boundary_moves()));
    } else if (cmd == "health") {
      std::fputs(ctl.health.health_json().c_str(), stdout);
    } else if (cmd == "alerts") {
      for (const obs::AlertStatus& st : ctl.health.alerts()) {
        std::printf("%-24s %-8s fired=%llu value=%.3f\n",
                    obs::alert_rule_name(st.rule),
                    st.active ? "ACTIVE" : "ok",
                    static_cast<unsigned long long>(st.fired_count), st.value);
      }
    } else if (cmd == "dump") {
      std::string path;
      if (!(in >> path)) path = "flight.json";
      const bool ok = obs::FlightRecorder::global().dump(path, "kddctl");
      std::printf("flight recorder %s -> %s\n",
                  ok ? "dumped" : "DUMP FAILED", path.c_str());
    } else if (cmd == "flush") {
      ctl.kdd->flush();
      std::printf("flushed; stale groups now %llu\n",
                  static_cast<unsigned long long>(ctl.kdd->stale_groups()));
    } else if (cmd == "fail-disk") {
      std::uint32_t disk = 0;
      in >> disk;
      if (disk >= 5) {
        std::printf("disk index 0..4\n");
        continue;
      }
      const std::uint64_t unsafe = ctl.kdd->handle_disk_failure(disk);
      std::printf("disk %u failed and rebuilt; %llu groups rebuilt from stale parity\n",
                  disk, static_cast<unsigned long long>(unsafe));
    } else if (cmd == "fail-ssd") {
      const std::uint64_t resynced = ctl.kdd->handle_ssd_failure();
      std::printf("SSD replaced; %llu stale groups resynced; cache is cold\n",
                  static_cast<unsigned long long>(resynced));
    } else if (cmd == "crash") {
      ctl.reset_cache(/*recover=*/true);
      std::printf("power failure simulated; recovered %llu stale groups from "
                  "metadata log + NVRAM\n",
                  static_cast<unsigned long long>(ctl.kdd->stale_groups()));
    } else if (cmd == "scrub") {
      const auto bad = ctl.array.scrub();
      std::printf("scrub: %zu inconsistent stripes (%llu tracked stale)\n",
                  bad.size(), static_cast<unsigned long long>(ctl.kdd->stale_groups()));
    } else {
      std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    }
  }
  return 0;
}
