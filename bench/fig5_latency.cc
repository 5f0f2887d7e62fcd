// Figure 5: single-thread mean latency.
//   (a) CassaEV / MUSIC / MSCP full-operation latency across profiles.
//   (b) fine-grained breakdown of the MUSIC operations for lUs:
//       createLockRef (C), acquireLock peek (L) + grant (Q), criticalPut
//       (Q for MUSIC vs P for MSCP), releaseLock (C).
// Paper (lUs): createLockRef/releaseLock 219-230ms (4 RTTs), peek ~0.67ms,
// grant ~55ms, MUSIC put ~93ms, MSCP put ~270ms.
//
// Part (a)'s nine (profile, system) cells are independent seeded worlds and
// run in parallel via par::run_worlds; output order is fixed by the job
// list, so the table is identical at any thread count.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common.h"

using namespace music;
using namespace music::bench;

namespace {

constexpr uint64_t kSeed = 7;
constexpr int kOps = 40;

CellResult music_latency(const sim::LatencyProfile& profile,
                         core::PutMode mode) {
  // The paper runs a load generator on each site; average the per-site
  // single-thread latencies (sites see different quorum distances,
  // especially on lUsEu where Frankfurt is 100-150ms away).  Each site runs
  // kOps sections, so merging the samples equals averaging the site means.
  WallTimer wall;
  CellResult out;
  for (int site = 0; site < 3; ++site) {
    MusicWorld w(paper_world(kSeed + static_cast<uint64_t>(site), profile, mode, 3, 1));
    auto clients = w.client_ptrs();
    std::rotate(clients.begin(), clients.begin() + site, clients.end());
    auto workload =
        std::make_shared<wl::MusicCsWorkload>(clients, "lat", 1, 10);
    auto r = wl::run_sequential(w.sim, workload, kOps);
    out.run.latency.merge(r.latency);
    out.run.completed += r.completed;
    out.events += w.sim.events_run();
  }
  out.wall_sec = wall.elapsed_sec();
  return out;
}

CellResult cassaev_latency(const sim::LatencyProfile& profile) {
  WallTimer wall;
  sim::Simulation s(kSeed);
  sim::NetworkConfig nc;
  nc.profile = profile;
  sim::Network net(s, nc);
  ds::StoreCluster store(s, net, ds::StoreConfig{}, {0, 1, 2});
  auto workload = std::make_shared<wl::CassaEvWorkload>(store, "ev", 10);
  CellResult out;
  out.run = wl::run_sequential(s, workload, kOps);
  out.events = s.events_run();
  out.wall_sec = wall.elapsed_sec();
  return out;
}

/// Per-operation breakdown, measured client-side over many sections.
struct Breakdown {
  wl::Samples create, peek, grant, put, release;
};

sim::Task<void> measure_breakdown(MusicWorld& w, Breakdown& out, int rounds) {
  auto& c = *w.clients.front();
  for (int i = 0; i < rounds; ++i) {
    Key key = "bd" + std::to_string(i % 4);
    sim::Time t0 = w.sim.now();
    auto ref = co_await c.create_lock_ref(key);
    out.create.add(w.sim.now() - t0);
    if (!ref.ok()) continue;

    t0 = w.sim.now();
    auto acq = co_await c.acquire_lock_blocking(key, ref.value());
    out.grant.add(w.sim.now() - t0);
    if (!acq.ok()) continue;

    // The peek ('L'): a poll by a waiter that is NOT first in the queue
    // takes only the local lock-store read (plus the client hop).
    auto waiter = co_await c.create_lock_ref(key);
    if (waiter.ok()) {
      t0 = w.sim.now();
      auto poll = co_await c.acquire_lock(key, waiter.value());
      (void)poll;
      out.peek.add(w.sim.now() - t0);
      co_await c.remove_lock_ref(key, waiter.value());
    }

    t0 = w.sim.now();
    co_await c.critical_put(key, ref.value(), Value("v"));
    out.put.add(w.sim.now() - t0);

    t0 = w.sim.now();
    co_await c.release_lock(key, ref.value());
    out.release.add(w.sim.now() - t0);
  }
}

}  // namespace

int main() {
  BenchReport report("fig5");
  std::printf("Figure 5(a): single-thread mean latency (ms), batch=1, 10B\n");
  std::printf("paper (lUs): CassaEV ~1, MUSIC ~590 total section, MSCP ~30%% "
              "higher on cross-region profiles\n");
  hr();
  std::printf("%-8s %10s %10s %10s %12s\n", "profile", "CassaEV", "MUSIC",
              "MSCP", "MSCP/MUSIC");
  Csv csv("fig5a.csv");
  csv.row("profile,cassaev_ms,music_ms,mscp_ms");
  auto profiles = sim::LatencyProfile::table2();
  std::vector<std::function<CellResult()>> jobs;
  for (const auto& profile : profiles) {
    jobs.push_back([profile] { return cassaev_latency(profile); });
    jobs.push_back(
        [profile] { return music_latency(profile, core::PutMode::Quorum); });
    jobs.push_back(
        [profile] { return music_latency(profile, core::PutMode::Lwt); });
  }
  auto cells = run_cells(std::move(jobs));
  for (size_t i = 0; i < profiles.size(); ++i) {
    double ev = cells[i * 3].run.latency.mean_ms();
    double mu = cells[i * 3 + 1].run.latency.mean_ms();
    double ms = cells[i * 3 + 2].run.latency.mean_ms();
    std::printf("%-8s %10.2f %10.1f %10.1f %11.2fx\n", profiles[i].name.c_str(),
                ev, mu, ms, ms / mu);
    csv.row(profiles[i].name + "," + std::to_string(ev) + "," +
            std::to_string(mu) + "," + std::to_string(ms));
    std::string base = "fig5a.";
    base += profiles[i].name;
    report.set(base + ".music_ms", mu);
    report.set(base + ".mscp_ms", ms);
    report.add_cell(base + ".cassaev", cells[i * 3]);
    report.add_cell(base + ".music", cells[i * 3 + 1]);
    report.add_cell(base + ".mscp", cells[i * 3 + 2]);
  }
  hr();

  std::printf("\nFigure 5(b): operation breakdown, lUs profile (ms)\n");
  std::printf("paper: createLockRef 219-230 (C), peek 0.67 (L), grant ~55 (Q),"
              " criticalPut ~93 (Q) / MSCP ~270 (P), releaseLock 219-230 (C)\n");
  hr();
  Csv csv_b("fig5b.csv");
  csv_b.row("op,mode,mean_ms");
  auto lus = sim::LatencyProfile::profile_lus();
  for (auto mode : {core::PutMode::Quorum, core::PutMode::Lwt}) {
    WallTimer wall;
    MusicWorld w(paper_world(kSeed, lus, mode, 3, 1));
    Breakdown bd;
    bool done = false;
    sim::spawn(w.sim, [](MusicWorld& world, Breakdown& b, bool& d) -> sim::Task<void> {
      co_await measure_breakdown(world, b, kOps);
      d = true;
    }(w, bd, done));
    w.sim.run_until(sim::sec(600));
    const char* name = mode == core::PutMode::Quorum ? "MUSIC" : "MSCP";
    CellResult cell;
    cell.events = w.sim.events_run();
    cell.wall_sec = wall.elapsed_sec();
    std::string base = "fig5b.";
    base += name;
    report.add_cell(base, cell);
    if (!done) {
      std::printf("%s: breakdown did not finish\n", name);
      continue;
    }
    std::printf("%-6s createLockRef %7.1f | peek(L) %5.2f | grant(Q) %6.1f | "
                "criticalPut(%s) %6.1f | releaseLock %7.1f\n",
                name, bd.create.mean_ms(), bd.peek.mean_ms(),
                bd.grant.mean_ms(),
                mode == core::PutMode::Quorum ? "Q" : "P", bd.put.mean_ms(),
                bd.release.mean_ms());
    for (auto& [op, s] :
         std::vector<std::pair<const char*, wl::Samples*>>{{"createLockRef", &bd.create},
                                                           {"peek", &bd.peek},
                                                           {"grant", &bd.grant},
                                                           {"criticalPut", &bd.put},
                                                           {"releaseLock", &bd.release}}) {
      csv_b.row(std::string(op) + "," + name + "," + std::to_string(s->mean_ms()));
    }
  }
  hr();
  return 0;
}
