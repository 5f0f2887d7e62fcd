// Figure 7: mean latency of a critical section with identical guarantees,
// MUSIC vs CockroachDB (the §X-B3 recipe), lUs profile, single thread.
//   (a) vs batch size (state updates per section)
//   (b) vs data size at batch 100
// Paper shape: MUSIC ~2-4x faster; the gap follows §X-B4's cost model —
// CockroachDB pays 2 consensus rounds per update, MUSIC one quorum write
// (its consensus lock cost amortizes over the batch).
//
// Each (system, batch/size) cell is an independent seeded world, fanned out
// via par::run_worlds.
#include <cstdio>
#include <memory>

#include "common.h"

using namespace music;
using namespace music::bench;

namespace {

constexpr uint64_t kSeed = 21;

CellResult music_cs(int batch, size_t vsize) {
  WallTimer wall;
  MusicWorld w(paper_world(kSeed, sim::LatencyProfile::profile_lus(),
               core::PutMode::Quorum, 3, 1));
  auto workload =
      std::make_shared<wl::MusicCsWorkload>(w.client_ptrs(), "cs", batch, vsize);
  CellResult out;
  out.run = wl::run_sequential(w.sim, workload, batch >= 100 ? 5 : 15,
                               sim::sec(7200));
  out.events = w.sim.events_run();
  out.wall_sec = wall.elapsed_sec();
  return out;
}

CellResult cdb_cs(int batch, size_t vsize) {
  WallTimer wall;
  CdbWorld w(paper_world(kSeed, sim::LatencyProfile::profile_lus(), core::PutMode::Quorum, 3, 1));
  auto workload =
      std::make_shared<wl::CdbCsWorkload>(w.client_ptrs(), "cs", batch, vsize);
  CellResult out;
  out.run = wl::run_sequential(w.sim, workload, batch >= 100 ? 5 : 15,
                               sim::sec(7200));
  out.events = w.sim.events_run();
  out.wall_sec = wall.elapsed_sec();
  return out;
}

}  // namespace

int main() {
  BenchReport report("fig7");
  std::printf("Figure 7(a): critical-section mean latency vs batch size (ms), "
              "lUs, single thread, 10B\n");
  std::printf("paper: MUSIC ~2-4x faster than the CockroachDB critical "
              "section; gap grows with batch\n");
  hr();
  std::printf("%-8s %12s %14s %10s\n", "batch", "MUSIC", "CockroachDB",
              "Cdb/MUSIC");
  Csv csv("fig7a.csv");
  csv.row("batch,music_ms,cdb_ms");
  std::vector<int> batches{1, 10, 50, 100};
  std::vector<std::function<CellResult()>> jobs;
  for (int batch : batches) {
    jobs.push_back([batch] { return music_cs(batch, 10); });
    jobs.push_back([batch] { return cdb_cs(batch, 10); });
  }
  auto cells = run_cells(std::move(jobs));
  for (size_t i = 0; i < batches.size(); ++i) {
    double mu = cells[i * 2].run.latency.mean_ms();
    double cdb = cells[i * 2 + 1].run.latency.mean_ms();
    std::printf("%-8d %12.1f %14.1f %9.2fx\n", batches[i], mu, cdb, cdb / mu);
    csv.row(std::to_string(batches[i]) + "," + std::to_string(mu) + "," +
            std::to_string(cdb));
    std::string base = "fig7a.b";
    base += std::to_string(batches[i]);
    report.add_cell(base + ".music", cells[i * 2]);
    report.add_cell(base + ".cdb", cells[i * 2 + 1]);
  }
  hr();

  std::printf("\nFigure 7(b): critical-section mean latency vs data size "
              "(ms), batch=100, lUs\n");
  hr();
  std::printf("%-8s %12s %14s %10s\n", "size", "MUSIC", "CockroachDB",
              "Cdb/MUSIC");
  Csv csv_b("fig7b.csv");
  csv_b.row("bytes,music_ms,cdb_ms");
  std::vector<size_t> sizes{10, 1024, 16 * 1024, 256 * 1024};
  std::vector<std::function<CellResult()>> jobs_b;
  for (size_t vsize : sizes) {
    jobs_b.push_back([vsize] { return music_cs(100, vsize); });
    jobs_b.push_back([vsize] { return cdb_cs(100, vsize); });
  }
  auto cells_b = run_cells(std::move(jobs_b));
  for (size_t i = 0; i < sizes.size(); ++i) {
    double mu = cells_b[i * 2].run.latency.mean_ms();
    double cdb = cells_b[i * 2 + 1].run.latency.mean_ms();
    std::printf("%-8s %12.1f %14.1f %9.2fx\n", size_label(sizes[i]).c_str(),
                mu, cdb, cdb / mu);
    csv_b.row(std::to_string(sizes[i]) + "," + std::to_string(mu) + "," +
              std::to_string(cdb));
    std::string base = "fig7b.";
    base += size_label(sizes[i]);
    report.add_cell(base + ".music", cells_b[i * 2]);
    report.add_cell(base + ".cdb", cells_b[i * 2 + 1]);
  }
  hr();
  return 0;
}
