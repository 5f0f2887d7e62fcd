// Figure 6: MUSIC vs MSCP vs Zookeeper peak WRITE throughput (writes/s),
// lUs profile.
//   (a) batch size (writes per critical section) 10 -> 100 -> 1000, 10B
//   (b) data size 10B -> 1KB -> 16KB -> 256KB at batch 100
// Paper shapes: MUSIC's lock cost amortizes with batch size (throughput
// nearly doubles 10->1000) and beats Zookeeper 1.4-2.3x on (a) and
// 2.45-17.17x on (b); MUSIC beats MSCP 2-3.5x throughout.  Zookeeper's
// stable leader serializes every write (plus a per-commit fsync), which is
// what the data-size sweep exposes.
//
// All 21 (system, batch/size) cells are independent seeded worlds fanned
// out via par::run_worlds; the batch=1000 cells dominate the sweep's
// wall-clock, so overlapping them with the rest is most of the win.
#include <cstdio>
#include <memory>

#include "common.h"

using namespace music;
using namespace music::bench;

namespace {

constexpr uint64_t kSeed = 13;

/// Writes/s for a MUSIC/MSCP critical section of `batch` puts.
CellResult music_writes(core::PutMode mode, int batch, size_t vsize) {
  WallTimer wall;
  MusicWorld w(paper_world(kSeed, sim::LatencyProfile::profile_lus(), mode, 3, 86));
  auto workload = std::make_shared<wl::MusicCsWorkload>(w.client_ptrs(),
                                                        "zk", batch, vsize);
  wl::DriverConfig cfg;
  cfg.clients = static_cast<int>(w.clients.size());
  cfg.warmup = sim::sec(5);
  // Long sections need a window that fits several of them.
  cfg.measure = batch >= 1000 ? sim::sec(600) : sim::sec(60);
  cfg.drain = sim::sec(150);
  CellResult out;
  out.run = wl::run_closed_loop(w.sim, workload, cfg);
  out.events = w.sim.events_run();
  out.wall_sec = wall.elapsed_sec();
  return out;
}

/// Writes/s for plain Zookeeper setData writes in batches of `batch`.
CellResult zk_writes(int batch, size_t vsize) {
  WallTimer wall;
  ZkWorld w(paper_world(kSeed, sim::LatencyProfile::profile_lus(), core::PutMode::Quorum, 3, 86));
  auto workload =
      std::make_shared<wl::ZkWriteWorkload>(w.client_ptrs(), "/z", batch, vsize);
  wl::DriverConfig cfg;
  cfg.clients = static_cast<int>(w.clients.size());
  cfg.warmup = sim::sec(5);
  cfg.measure = batch >= 1000 ? sim::sec(400) : sim::sec(60);
  cfg.drain = sim::sec(120);
  CellResult out;
  out.run = wl::run_closed_loop(w.sim, workload, cfg);
  out.events = w.sim.events_run();
  out.wall_sec = wall.elapsed_sec();
  return out;
}

/// sections/s -> writes/s.
double wps(const CellResult& c, int batch) {
  return c.run.throughput() * batch;
}

}  // namespace

int main() {
  BenchReport report("fig6");
  std::printf("Figure 6(a): write throughput vs batch size (writes/s), lUs, 10B\n");
  std::printf("paper: MUSIC 1.4-2.3x Zookeeper, 2-3.5x MSCP; MUSIC nearly "
              "doubles as the lock cost amortizes\n");
  hr();
  std::printf("%-8s %12s %12s %12s %10s %10s\n", "batch", "MUSIC", "MSCP",
              "Zookeeper", "MU/ZK", "MU/MSCP");
  Csv csv("fig6a.csv");
  csv.row("batch,music_wps,mscp_wps,zk_wps");
  std::vector<int> batches{10, 100, 1000};
  std::vector<std::function<CellResult()>> jobs;
  for (int batch : batches) {
    jobs.push_back(
        [batch] { return music_writes(core::PutMode::Quorum, batch, 10); });
    jobs.push_back(
        [batch] { return music_writes(core::PutMode::Lwt, batch, 10); });
    jobs.push_back([batch] { return zk_writes(batch, 10); });
  }
  auto cells = run_cells(std::move(jobs));
  for (size_t i = 0; i < batches.size(); ++i) {
    int batch = batches[i];
    double mu = wps(cells[i * 3], batch);
    double ms = wps(cells[i * 3 + 1], batch);
    double zk = wps(cells[i * 3 + 2], batch);
    std::printf("%-8d %12.0f %12.0f %12.0f %9.2fx %9.2fx\n", batch, mu, ms,
                zk, mu / zk, mu / ms);
    csv.row(std::to_string(batch) + "," + std::to_string(mu) + "," +
            std::to_string(ms) + "," + std::to_string(zk));
    std::string base = "fig6a.b";
    base += std::to_string(batch);
    report.set(base + ".music_wps", mu);
    report.add_cell(base + ".music", cells[i * 3]);
    report.add_cell(base + ".mscp", cells[i * 3 + 1]);
    report.add_cell(base + ".zk", cells[i * 3 + 2]);
  }
  hr();

  std::printf("\nFigure 6(b): write throughput vs data size (writes/s), "
              "batch=100, lUs\n");
  std::printf("paper: MUSIC 2.45-17.17x Zookeeper (gap grows with data "
              "size), 2-3.5x MSCP\n");
  hr();
  std::printf("%-8s %12s %12s %12s %10s %10s\n", "size", "MUSIC", "MSCP",
              "Zookeeper", "MU/ZK", "MU/MSCP");
  Csv csv_b("fig6b.csv");
  csv_b.row("bytes,music_wps,mscp_wps,zk_wps");
  std::vector<size_t> sizes{10, 1024, 16 * 1024, 256 * 1024};
  std::vector<std::function<CellResult()>> jobs_b;
  for (size_t vsize : sizes) {
    jobs_b.push_back(
        [vsize] { return music_writes(core::PutMode::Quorum, 100, vsize); });
    jobs_b.push_back(
        [vsize] { return music_writes(core::PutMode::Lwt, 100, vsize); });
    jobs_b.push_back([vsize] { return zk_writes(100, vsize); });
  }
  auto cells_b = run_cells(std::move(jobs_b));
  for (size_t i = 0; i < sizes.size(); ++i) {
    size_t vsize = sizes[i];
    double mu = wps(cells_b[i * 3], 100);
    double ms = wps(cells_b[i * 3 + 1], 100);
    double zk = wps(cells_b[i * 3 + 2], 100);
    std::printf("%-8s %12.0f %12.0f %12.0f %9.2fx %9.2fx\n",
                size_label(vsize).c_str(), mu, ms, zk, mu / zk, mu / ms);
    csv_b.row(std::to_string(vsize) + "," + std::to_string(mu) + "," +
              std::to_string(ms) + "," + std::to_string(zk));
    std::string base = "fig6b.";
    base += size_label(vsize);
    report.add_cell(base + ".music", cells_b[i * 3]);
    report.add_cell(base + ".mscp", cells_b[i * 3 + 1]);
    report.add_cell(base + ".zk", cells_b[i * 3 + 2]);
  }
  hr();
  return 0;
}
