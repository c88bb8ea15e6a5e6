// Shared sweep runner for Figures 5-8: cache-size sweep of {WA,} WT, LeavO
// and KDD at three content-locality levels over a trace, reporting hit
// ratios or SSD write traffic.
//
// Multi-core mode: KDD_SWEEP_THREADS=<n> (default 1) runs the
// (policy, locality, cache-size) grid points of each workload across a
// ThreadPool. Results land in index-addressed slots and the table/CSV are
// emitted serially after a join barrier, so row order, cell order and the
// printed output are identical at every thread count — only wall-clock
// changes. CSV writes additionally serialise on a per-file mutex so
// concurrent sweeps in one process never interleave inside a file.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/thread_pool.hpp"

namespace kdd::bench {

/// Sweep-point parallelism: KDD_SWEEP_THREADS (>= 1; default 1 keeps the
/// historical fully serial behaviour).
inline std::size_t sweep_threads() {
  if (const char* env = std::getenv("KDD_SWEEP_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 1) return static_cast<std::size_t>(v);
  }
  return 1;
}

/// One mutex per output file (figure+workload), created on first use. Keeps
/// concurrent sweeps from interleaving writes into the same CSV.
inline std::mutex& csv_file_mutex(const std::string& key) {
  static std::mutex registry_mu;
  static std::unordered_map<std::string, std::unique_ptr<std::mutex>>* registry =
      new std::unordered_map<std::string, std::unique_ptr<std::mutex>>();
  const std::lock_guard<std::mutex> lock(registry_mu);
  auto it = registry->find(key);
  if (it == registry->end()) {
    it = registry->emplace(key, std::make_unique<std::mutex>()).first;
  }
  return *it->second;
}

/// When KDD_CSV=<dir> is set, every sweep also lands as a CSV in that
/// directory (one file per figure+workload) for plotting.
inline void maybe_write_csv(const TextTable& table, const std::string& figure,
                            const std::string& workload) {
  const char* dir = std::getenv("KDD_CSV");
  if (!dir || !*dir) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::string name = figure + "_" + workload + ".csv";
  for (char& c : name) {
    if (c == ' ' || c == '/') c = '_';
  }
  const std::string path = std::string(dir) + "/" + name;
  const std::lock_guard<std::mutex> file_lock(csv_file_mutex(path));
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    table.print_csv(f);
    std::fclose(f);
    std::printf("(csv written to %s)\n", path.c_str());
  }
}

struct FigureConfig {
  const char* figure;
  const char* metric;  ///< "hit ratio" or "SSD write traffic"
  std::vector<const char*> workloads;
  bool traffic_mode = false;  ///< false: hit ratios (Figs 5/7); true: traffic (6/8)
};

inline void run_cache_size_sweep(const FigureConfig& fig) {
  const double scale = experiment_scale();
  banner(fig.figure, fig.metric, scale);
  ThreadPool pool(sweep_threads());

  for (const char* workload : fig.workloads) {
    const Trace trace = generate_preset(workload, scale);
    const TraceStats tstats = compute_stats(trace);
    const RaidGeometry geo = paper_geometry(tstats.max_page);

    std::printf("--- %s (unique pages: %lluk) ---\n", workload,
                static_cast<unsigned long long>(tstats.unique_pages_total / 1000));

    struct SweepConfig {
      PolicyKind kind;
      double locality;
      bool elastic;
    };
    std::vector<std::string> header{"Cache size"};
    std::vector<SweepConfig> configs;
    if (fig.traffic_mode) configs.push_back({PolicyKind::kWA, 0.25, false});
    configs.push_back({PolicyKind::kWT, 0.25, false});
    configs.push_back({PolicyKind::kLeavO, 0.25, false});
    for (const double locality : kLocalityLevels) {
      configs.push_back({PolicyKind::kKdd, locality, false});
    }
    if (!fig.traffic_mode) {
      // Compressibility-mix axis (hit-ratio figures only): KDD with the
      // adaptive DAZ/DEZ boundary at near-incompressible / mixed /
      // highly-compressible content, against the static-layout KDD columns.
      for (const double mean : kCompressMix) {
        configs.push_back({PolicyKind::kKdd, mean, true});
      }
    }
    for (const auto& [kind, locality, elastic] : configs) {
      std::string name = policy_kind_name(kind);
      if (kind == PolicyKind::kKdd) {
        name += std::string(elastic ? "e" : "") + "-" +
                TextTable::num(locality * 100, 0) + "%";
      }
      header.push_back(name);
    }
    if (fig.traffic_mode) {
      header.push_back("KDD-25 vs WT");
      header.push_back("KDD-25 vs LeavO");
    }
    TextTable table(header);

    // Fan the whole (cache size x config) grid out across the pool. Each
    // grid point is an independent replay (run_policy_on_trace builds its
    // own policy instance), and each result is written to its own slot, so
    // the serial emission below is order-identical at any thread count.
    const std::vector<double> fractions = cache_fractions();
    const std::size_t cols = configs.size();
    std::vector<CacheStats> results(fractions.size() * cols);
    pool.parallel_for_indexed(results.size(), [&](std::size_t i) {
      const std::size_t fi = i / cols;
      const std::size_t ci = i % cols;
      const auto ssd_pages = static_cast<std::uint64_t>(
          fractions[fi] * static_cast<double>(tstats.unique_pages_total));
      const auto& [kind, locality, elastic] = configs[ci];
      results[i] =
          run_policy_on_trace(kind, locality, ssd_pages, trace, geo, elastic);
    });

    for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
      const auto ssd_pages = static_cast<std::uint64_t>(
          fractions[fi] * static_cast<double>(tstats.unique_pages_total));
      std::vector<std::string> row{kpages(ssd_pages)};
      double wt_traffic = 0, leavo_traffic = 0, kdd25_traffic = 0;
      for (std::size_t ci = 0; ci < cols; ++ci) {
        const auto& [kind, locality, elastic] = configs[ci];
        const CacheStats& s = results[fi * cols + ci];
        if (fig.traffic_mode) {
          const double gib =
              static_cast<double>(s.write_traffic_bytes()) / static_cast<double>(kGiB);
          row.push_back(TextTable::num(gib, 2));
          if (kind == PolicyKind::kWT) wt_traffic = gib;
          if (kind == PolicyKind::kLeavO) leavo_traffic = gib;
          if (kind == PolicyKind::kKdd && locality == 0.25 && !elastic) {
            kdd25_traffic = gib;
          }
        } else {
          row.push_back(pct(s.hit_ratio()));
        }
      }
      if (fig.traffic_mode) {
        row.push_back("-" + pct(1.0 - kdd25_traffic / wt_traffic));
        row.push_back("-" + pct(1.0 - kdd25_traffic / leavo_traffic));
      }
      table.add_row(std::move(row));
    }
    table.print();
    maybe_write_csv(table, fig.figure, workload);
    std::printf("%s\n", fig.traffic_mode ? "(GiB written to SSD; lower is better)\n"
                                         : "(overall hit ratio; higher is better; "
                                           "KDDe-N% = adaptive DAZ/DEZ boundary "
                                           "at incompressible/mixed/"
                                           "compressible content mixes)\n");
  }
}

}  // namespace kdd::bench
