// Figure 4: peak write throughput.
//   (a) CassaEV / MUSIC / MSCP across the Table II latency profiles
//       (batch 1, 10B values, saturating clients, non-overlapping keys).
//   (b) MUSIC and MSCP as the Cassandra cluster grows 3 -> 6 -> 9 nodes
//       (RF=3, keys sharded, lUs profile).
// Paper shapes: MUSIC ~30% over MSCP on every profile; CassaEV ~41k op/s
// (the upper bound); throughput grows with cluster size (Fig. 4b).
//
// Every (profile, system) cell is an independent seeded world, so the sweep
// fans out across par::run_worlds — rows print in table order regardless of
// which world finished first, and the numbers are thread-count invariant.
#include <cstdio>
#include <memory>

#include "common.h"

using namespace music;
using namespace music::bench;

namespace {

constexpr int kMusicClientsPerSite = 86;  // ~256 saturating threads
constexpr int kCassaClientsPerSite = 171;
constexpr uint64_t kSeed = 42;

CellResult run_music(const sim::LatencyProfile& profile, core::PutMode mode,
                     int nodes, int clients_per_site = kMusicClientsPerSite) {
  WallTimer wall;
  MusicWorld w(paper_world(kSeed, profile, mode, nodes, clients_per_site));
  auto workload =
      std::make_shared<wl::MusicCsWorkload>(w.client_ptrs(), "bench", 1, 10);
  wl::DriverConfig cfg;
  cfg.clients = static_cast<int>(w.clients.size());
  cfg.warmup = sim::sec(3);
  // High-concurrency (server-bound) runs use a shorter window to keep the
  // harness fast; the measurement is stable well before 10s.
  cfg.measure = clients_per_site > kMusicClientsPerSite ? sim::sec(10)
                                                        : sim::sec(20);
  CellResult out;
  out.run = wl::run_closed_loop(w.sim, workload, cfg);
  out.events = w.sim.events_run();
  out.wall_sec = wall.elapsed_sec();
  return out;
}

CellResult run_cassaev(const sim::LatencyProfile& profile) {
  WallTimer wall;
  sim::Simulation s(kSeed);
  sim::NetworkConfig nc;
  nc.profile = profile;
  sim::Network net(s, nc);
  ds::StoreCluster store(s, net, ds::StoreConfig{}, {0, 1, 2});
  auto workload = std::make_shared<wl::CassaEvWorkload>(store, "ev", 10);
  wl::DriverConfig cfg;
  cfg.clients = 3 * kCassaClientsPerSite;
  cfg.warmup = sim::sec(2);
  cfg.measure = sim::sec(10);
  CellResult out;
  out.run = wl::run_closed_loop(s, workload, cfg);
  out.events = s.events_run();
  out.wall_sec = wall.elapsed_sec();
  return out;
}

}  // namespace

int main() {
  BenchReport report("fig4");
  std::printf("Figure 4(a): peak throughput (op/s), batch=1, 10B values\n");
  std::printf("paper (lUs): CassaEV ~41000, MUSIC 885.4, MSCP ~680 "
              "(MUSIC ~1.3x MSCP on all profiles)\n");
  hr();
  std::printf("%-8s %12s %12s %12s %14s\n", "profile", "CassaEV", "MUSIC",
              "MSCP", "MUSIC/MSCP");
  Csv csv("fig4a.csv");
  csv.row("profile,cassaev_ops,music_ops,mscp_ops");

  auto profiles = sim::LatencyProfile::table2();
  std::vector<std::function<CellResult()>> jobs;
  for (const auto& profile : profiles) {
    jobs.push_back([profile] { return run_cassaev(profile); });
    jobs.push_back(
        [profile] { return run_music(profile, core::PutMode::Quorum, 3); });
    jobs.push_back(
        [profile] { return run_music(profile, core::PutMode::Lwt, 3); });
  }
  auto cells = run_cells(std::move(jobs));
  for (size_t i = 0; i < profiles.size(); ++i) {
    const auto& ev = cells[i * 3];
    const auto& mu = cells[i * 3 + 1];
    const auto& ms = cells[i * 3 + 2];
    std::printf("%-8s %12.0f %12.1f %12.1f %13.2fx\n",
                profiles[i].name.c_str(), ev.run.throughput(),
                mu.run.throughput(), ms.run.throughput(),
                mu.run.throughput() / ms.run.throughput());
    csv.row(profiles[i].name + "," + std::to_string(ev.run.throughput()) +
            "," + std::to_string(mu.run.throughput()) + "," +
            std::to_string(ms.run.throughput()));
    std::string base = "fig4a.";
    base += profiles[i].name;
    report.set(base + ".music_ops", mu.run.throughput());
    report.set(base + ".mscp_ops", ms.run.throughput());
    report.add_cell(base + ".cassaev", ev);
    report.add_cell(base + ".music", mu);
    report.add_cell(base + ".mscp", ms);
  }
  hr();

  std::printf("\nFigure 4(b): scaling the cluster 3 -> 9 nodes "
              "(lUs, RF=3 sharded)\n");
  std::printf("paper: both scale up with nodes; MUSIC stays ~1.30-1.36x MSCP\n");
  std::printf("(run at 12x the thread count of 4(a) so the 3-node cluster is "
              "server-bound and scaling is visible)\n");
  hr();
  std::printf("%-8s %12s %12s %14s\n", "nodes", "MUSIC", "MSCP", "MUSIC/MSCP");
  Csv csv_b("fig4b.csv");
  csv_b.row("nodes,music_ops,mscp_ops");
  auto lus = sim::LatencyProfile::profile_lus();
  std::vector<int> node_counts{3, 6, 9};
  std::vector<std::function<CellResult()>> jobs_b;
  for (int nodes : node_counts) {
    jobs_b.push_back([lus, nodes] {
      return run_music(lus, core::PutMode::Quorum, nodes,
                       12 * kMusicClientsPerSite);
    });
    jobs_b.push_back([lus, nodes] {
      return run_music(lus, core::PutMode::Lwt, nodes,
                       12 * kMusicClientsPerSite);
    });
  }
  auto cells_b = run_cells(std::move(jobs_b));
  for (size_t i = 0; i < node_counts.size(); ++i) {
    const auto& mu = cells_b[i * 2];
    const auto& ms = cells_b[i * 2 + 1];
    std::printf("%-8d %12.1f %12.1f %13.2fx\n", node_counts[i],
                mu.run.throughput(), ms.run.throughput(),
                mu.run.throughput() / ms.run.throughput());
    csv_b.row(std::to_string(node_counts[i]) + "," +
              std::to_string(mu.run.throughput()) + "," +
              std::to_string(ms.run.throughput()));
    std::string base = "fig4b.n";
    base += std::to_string(node_counts[i]);
    report.add_cell(base + ".music", mu);
    report.add_cell(base + ".mscp", ms);
  }
  hr();
  return 0;
}
