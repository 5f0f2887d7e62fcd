// Figure 8 (§X-B1): latency CDFs of MUSIC vs MSCP, profiles 11 and lUs.
// Paper shape: for the within-region 11 profile the two curves nearly
// coincide; for the cross-region lUs profile MUSIC sits ~30% left of MSCP.
//
// The four (profile, mode) collections are independent seeded worlds, fanned
// out over par::run_worlds; each returns its full latency sample set so the
// CDF is computed on the main thread in fixed order.
#include <cstdio>
#include <memory>
#include <string>

#include "common.h"

using namespace music;
using namespace music::bench;

namespace {

struct CdfConfig {
  std::string pname;
  core::PutMode mode = core::PutMode::Quorum;
};

struct CdfCell {
  wl::Samples samples;
  CellResult cell;
};

CdfCell collect(const CdfConfig& cfg) {
  WallTimer wall;
  auto profile = cfg.pname == "11" ? sim::LatencyProfile::profile_11()
                                   : sim::LatencyProfile::profile_lus();
  MusicWorld w(paper_world(33, profile, cfg.mode, 3, 1));
  auto workload =
      std::make_shared<wl::MusicCsWorkload>(w.client_ptrs(), "cdf", 1, 10);
  CdfCell out;
  out.cell.run = wl::run_sequential(w.sim, workload, 200);
  out.samples = out.cell.run.latency;
  out.cell.events = w.sim.events_run();
  out.cell.wall_sec = wall.elapsed_sec();
  return out;
}

}  // namespace

int main() {
  BenchReport report("fig8");
  std::printf("Figure 8: critical-section latency CDFs, MUSIC vs MSCP\n");
  std::printf("paper: '11' curves nearly coincide; 'lUs' separates by ~30%%\n");
  Csv csv("fig8.csv");
  csv.row("profile,mode,percentile,latency_ms");
  std::vector<CdfConfig> configs;
  for (const char* pname : {"11", "lUs"}) {
    configs.push_back({pname, core::PutMode::Quorum});
    configs.push_back({pname, core::PutMode::Lwt});
  }
  auto cells = par::run_worlds(configs, collect, bench_threads());
  for (size_t i = 0; i < configs.size(); i += 2) {
    const std::string& pname = configs[i].pname;
    const auto& music_s = cells[i].samples;
    const auto& mscp_s = cells[i + 1].samples;
    hr();
    std::printf("profile %-5s %14s %14s\n", pname.c_str(), "MUSIC (ms)",
                "MSCP (ms)");
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
      std::printf("   p%-9.0f %14.1f %14.1f\n", p, music_s.percentile_ms(p),
                  mscp_s.percentile_ms(p));
      csv.row(pname + ",MUSIC," + std::to_string(p) + "," +
              std::to_string(music_s.percentile_ms(p)));
      csv.row(pname + ",MSCP," + std::to_string(p) + "," +
              std::to_string(mscp_s.percentile_ms(p)));
    }
    double sep = mscp_s.percentile_ms(50) / music_s.percentile_ms(50);
    std::printf("   median separation: %.2fx %s\n", sep,
                pname == "11" ? "(paper: ~1x)" : "(paper: ~1.3x)");
    std::string base = "fig8.";
    base += pname;
    report.set(base + ".median_sep", sep);
    report.add_cell(base + ".music", cells[i].cell);
    report.add_cell(base + ".mscp", cells[i + 1].cell);
  }
  hr();
  return 0;
}
