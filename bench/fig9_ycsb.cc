// Figure 9 (§X-B2): YCSB workloads over MUSIC vs MSCP, lUs profile, with
// lock collisions allowed (Zipfian key choice shared across threads).
//   R:  100% reads     UR: 50/50 reads/updates     U: 100% updates
// Paper shape: MUSIC ahead of MSCP by ~6-20% throughput and 0-20% latency
// (the gap grows with the update fraction: updates are where LWT puts
// hurt); ~5.5% of operations experience lock collisions.
//
// Each (mode, mix, seed) run is an independent world, so the full
// 2 modes x 3 mixes x 4 seeds = 24-world matrix fans out over
// par::run_worlds; the seed averaging happens on the main thread.
#include <cstdio>
#include <memory>
#include <vector>

#include "common.h"

using namespace music;
using namespace music::bench;

namespace {

constexpr uint64_t kSeed = 55;
constexpr uint64_t kRecords = 1000;
// One thread per site: aggregate demand stays below the hottest Zipfian
// key's critical-section capacity, yielding the paper's ~5% collision
// regime instead of a convoy on the head key.
constexpr int kClientsPerSite = 2;
// Average over several seeds: at the paper's ~5% collision regime the
// per-run means are dominated by which ops happened to collide.
constexpr int kSeeds = 4;

struct YcsbConfig {
  core::PutMode mode = core::PutMode::Quorum;
  wl::YcsbMix mix;
  uint64_t seed = 0;
};

struct YcsbCell {
  CellResult cell;
  double collision_pct = 0;
};

struct YcsbResult {
  double throughput = 0;
  double mean_ms = 0;
  double collision_pct = 0;
  CellResult agg;
};

YcsbCell run_one(const YcsbConfig& cfg) {
  WallTimer wall;
  MusicWorld w(paper_world(cfg.seed, sim::LatencyProfile::profile_lus(), cfg.mode, 3,
               kClientsPerSite));
  auto workload = std::make_shared<wl::YcsbWorkload>(
      w.client_ptrs(), cfg.mix, kRecords, 10, cfg.seed * 97);
  wl::DriverConfig dcfg;
  dcfg.clients = static_cast<int>(w.clients.size());
  dcfg.warmup = sim::sec(5);
  dcfg.measure = sim::sec(500);
  YcsbCell out;
  out.cell.run = wl::run_closed_loop(w.sim, workload, dcfg);
  out.cell.events = w.sim.events_run();
  out.cell.wall_sec = wall.elapsed_sec();
  out.collision_pct =
      workload->operations() > 0
          ? 100.0 * static_cast<double>(workload->collisions()) /
                static_cast<double>(workload->operations())
          : 0.0;
  return out;
}

/// Seed-average of kSeeds consecutive cells.
YcsbResult reduce(const std::vector<YcsbCell>& cells, size_t first) {
  YcsbResult out;
  for (size_t i = first; i < first + kSeeds; ++i) {
    out.throughput += cells[i].cell.run.throughput() / kSeeds;
    out.mean_ms += cells[i].cell.run.latency.mean_ms() / kSeeds;
    out.collision_pct += cells[i].collision_pct / kSeeds;
    out.agg.events += cells[i].cell.events;
    out.agg.wall_sec += cells[i].cell.wall_sec;
  }
  return out;
}

}  // namespace

int main() {
  BenchReport report("fig9");
  std::printf("Figure 9: YCSB R / UR / U over MUSIC vs MSCP (lUs, Zipfian, "
              "%d threads)\n", 3 * kClientsPerSite);
  std::printf("paper: MUSIC +6-20%% throughput, 0-20%% lower latency; ~5.5%% "
              "lock collisions\n");
  hr();
  std::printf("%-4s | %10s %10s %7s | %10s %10s %7s | %8s\n", "load",
              "MUSIC op/s", "lat ms", "coll%", "MSCP op/s", "lat ms", "coll%",
              "MU/MSCP");
  Csv csv("fig9.csv");
  csv.row("load,mode,ops,latency_ms,collision_pct");
  std::vector<wl::YcsbMix> mixes{wl::YcsbMix::r(), wl::YcsbMix::ur(),
                                 wl::YcsbMix::u()};
  std::vector<YcsbConfig> configs;
  for (const auto& mix : mixes) {
    for (auto mode : {core::PutMode::Quorum, core::PutMode::Lwt}) {
      for (int i = 0; i < kSeeds; ++i) {
        configs.push_back({mode, mix, kSeed + static_cast<uint64_t>(i)});
      }
    }
  }
  auto cells = par::run_worlds(configs, run_one, bench_threads());
  for (size_t m = 0; m < mixes.size(); ++m) {
    const auto& mix = mixes[m];
    auto mu = reduce(cells, m * 2 * kSeeds);
    auto ms = reduce(cells, m * 2 * kSeeds + kSeeds);
    std::printf("%-4s | %10.1f %10.1f %6.1f%% | %10.1f %10.1f %6.1f%% | %7.2fx\n",
                mix.name.c_str(), mu.throughput, mu.mean_ms, mu.collision_pct,
                ms.throughput, ms.mean_ms, ms.collision_pct,
                mu.throughput / ms.throughput);
    csv.row(mix.name + ",MUSIC," + std::to_string(mu.throughput) + "," +
            std::to_string(mu.mean_ms) + "," + std::to_string(mu.collision_pct));
    csv.row(mix.name + ",MSCP," + std::to_string(ms.throughput) + "," +
            std::to_string(ms.mean_ms) + "," + std::to_string(ms.collision_pct));
    std::string base = "fig9.";
    base += mix.name;
    report.set(base + ".music_ops", mu.throughput);
    report.set(base + ".mscp_ops", ms.throughput);
    report.add_cell(base + ".music", mu.agg);
    report.add_cell(base + ".mscp", ms.agg);
  }
  hr();
  return 0;
}
