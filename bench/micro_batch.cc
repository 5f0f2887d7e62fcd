// Pipelined critical sections: what batching Table I operations buys.
//
// The unbatched client pays one value-quorum WAN round trip PER criticalPut
// (§X-B4); the Session API ships the whole critical section body as one
// `batch` request, and the replica coalesces independent-key writes into a
// single quorum round — so x puts cost 1 round trip instead of x.  This
// bench proves the round-trip claim off the tracer (8 puts -> 1 RTT batched
// vs 8 unbatched), then sweeps batch size for end-to-end latency and
// closed-loop throughput, batched vs unbatched.
//
// `--smoke` runs the RTT proof plus one quick latency point and exits
// nonzero unless the batched path wins (CI tier-1 gate).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "common.h"
#include "core/session.h"

using namespace music;
using namespace music::bench;

namespace {

constexpr uint64_t kSeed = 41;

/// One traced critical section of `n` independent-key criticalPuts through
/// the Session API.  Returns the rolled-up WAN round trips of the flush
/// (the "client.batch" root span) via the registry, or ~0 on failure.
uint64_t batched_put_rtts(int n) {
  MusicWorld w(paper_world(kSeed, sim::LatencyProfile::profile_luseu(),
               core::PutMode::Quorum, 3, 1));
  ObsSession obs(w.sim);
  bool done = false;
  sim::spawn(w.sim, [](MusicWorld& world, int puts,
                       bool& d) -> sim::Task<void> {
    core::MusicClient& c = *world.clients.front();
    core::CriticalSection cs(c, "probe");
    auto acq = co_await cs.enter();
    if (!acq.ok()) co_return;
    core::Session s = cs.session();
    for (int i = 0; i < puts; ++i) {
      s.put("probe/" + std::to_string(i), Value("v"));
    }
    auto st = co_await s.flush();
    co_await cs.exit();
    d = st.ok();
  }(w, n, done));
  w.sim.run_until(sim::sec(60));
  if (!done) return ~uint64_t{0};
  return obs.metrics.counter("span.client.batch.rtts").value;
}

/// The same work through the unbatched client: `n` sequential criticalPuts
/// on the held key (the unbatched API checks the holder of the target key
/// itself, so a critical section can only write its own key).  Returns the
/// summed round trips of all "client.critical_put" spans (one quorum round
/// each in Quorum mode).
uint64_t unbatched_put_rtts(int n) {
  MusicWorld w(paper_world(kSeed, sim::LatencyProfile::profile_luseu(),
               core::PutMode::Quorum, 3, 1));
  ObsSession obs(w.sim);
  bool done = false;
  sim::spawn(w.sim, [](MusicWorld& world, int puts,
                       bool& d) -> sim::Task<void> {
    core::MusicClient& c = *world.clients.front();
    auto ref = co_await c.create_lock_ref("probe");
    if (!ref.ok()) co_return;
    auto acq = co_await c.acquire_lock_blocking("probe", ref.value());
    if (!acq.ok()) co_return;
    bool ok = true;
    for (int i = 0; i < puts; ++i) {
      auto st = co_await c.critical_put("probe", ref.value(), Value("v"));
      ok = ok && st.ok();
    }
    co_await c.release_lock("probe", ref.value());
    d = ok;
  }(w, n, done));
  w.sim.run_until(sim::sec(60));
  if (!done) return ~uint64_t{0};
  return obs.metrics.counter("span.client.critical_put.rtts").value;
}

/// The acceptance check: 8 independent-key criticalPuts cost ONE value-quorum
/// WAN round trip batched vs eight unbatched.
bool check_batching_rtts() {
  const int n = 8;
  uint64_t batched = batched_put_rtts(n);
  uint64_t unbatched = unbatched_put_rtts(n);
  std::printf("WAN round trips for %d independent-key criticalPuts (lUsEu, "
              "Quorum mode, traced):\n", n);
  bool ok = batched == 1 && unbatched == static_cast<uint64_t>(n);
  std::printf("  batched (one Session flush)   expected 1  measured %llu\n",
              static_cast<unsigned long long>(batched));
  std::printf("  unbatched (sequential puts)   expected %d  measured %llu\n",
              n, static_cast<unsigned long long>(unbatched));
  std::printf("  %s\n", ok ? "ok" : "MISMATCH");
  return ok;
}

CellResult cs_latency(int batch, bool batched, int iters) {
  WallTimer wall;
  MusicWorld w(paper_world(kSeed, sim::LatencyProfile::profile_lus(),
               core::PutMode::Quorum, 3, 1));
  std::shared_ptr<wl::Workload> workload;
  if (batched) {
    workload = std::make_shared<wl::MusicBatchCsWorkload>(w.client_ptrs(), "m",
                                                          batch, 10);
  } else {
    workload = std::make_shared<wl::MusicCsWorkload>(w.client_ptrs(), "m",
                                                     batch, 10);
  }
  CellResult out;
  out.run = wl::run_sequential(w.sim, workload, iters, sim::sec(7200));
  out.events = w.sim.events_run();
  out.wall_sec = wall.elapsed_sec();
  return out;
}

CellResult cs_throughput(int batch, bool batched) {
  WallTimer wall;
  MusicWorld w(paper_world(kSeed, sim::LatencyProfile::profile_lus(),
               core::PutMode::Quorum, 3, 3));
  std::shared_ptr<wl::Workload> workload;
  if (batched) {
    workload = std::make_shared<wl::MusicBatchCsWorkload>(w.client_ptrs(), "m",
                                                          batch, 10);
  } else {
    workload = std::make_shared<wl::MusicCsWorkload>(w.client_ptrs(), "m",
                                                     batch, 10);
  }
  wl::DriverConfig cfg;
  cfg.clients = 9;
  cfg.warmup = sim::sec(5);
  cfg.measure = sim::sec(30);
  CellResult out;
  out.run = wl::run_closed_loop(w.sim, workload, cfg);
  out.events = w.sim.events_run();
  out.wall_sec = wall.elapsed_sec();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  std::printf("pipelined critical sections: batched Session flush vs "
              "sequential Table I ops\n");
  hr();
  if (!check_batching_rtts()) return 1;
  hr();
  if (smoke) {
    // One quick latency point: the batched path must beat unbatched
    // end-to-end at batch size 8, not just on the RTT count.
    double ub = cs_latency(8, false, 4).run.latency.mean_ms();
    double b = cs_latency(8, true, 4).run.latency.mean_ms();
    std::printf("smoke latency, batch 8 (lUs): unbatched %.1f ms, batched "
                "%.1f ms\n", ub, b);
    if (!(b < ub)) {
      std::printf("smoke FAILED: batched latency is not lower\n");
      return 1;
    }
    std::printf("smoke ok\n");
    return 0;
  }
  BenchReport report("micro_batch");
  std::printf("%-6s | %12s %12s %7s | %11s %11s %7s\n", "batch",
              "unbat ms", "batch ms", "speedup", "unbat cs/s", "batch cs/s",
              "gain");
  Csv csv("micro_batch.csv");
  csv.row("batch,unbatched_ms,batched_ms,unbatched_cs_per_s,batched_cs_per_s");
  std::vector<int> xs{1, 2, 4, 8, 16};
  std::vector<std::function<CellResult()>> jobs;
  for (int x : xs) {
    jobs.push_back([x] { return cs_latency(x, false, 8); });
    jobs.push_back([x] { return cs_latency(x, true, 8); });
    jobs.push_back([x] { return cs_throughput(x, false); });
    jobs.push_back([x] { return cs_throughput(x, true); });
  }
  auto cells = run_cells(std::move(jobs));
  for (size_t i = 0; i < xs.size(); ++i) {
    int x = xs[i];
    double ub_ms = cells[i * 4].run.latency.mean_ms();
    double b_ms = cells[i * 4 + 1].run.latency.mean_ms();
    double ub_tp = cells[i * 4 + 2].run.throughput();
    double b_tp = cells[i * 4 + 3].run.throughput();
    std::printf("%-6d | %12.1f %12.1f %6.2fx | %11.1f %11.1f %6.2fx\n", x,
                ub_ms, b_ms, ub_ms / b_ms, ub_tp, b_tp, b_tp / ub_tp);
    csv.row(std::to_string(x) + "," + std::to_string(ub_ms) + "," +
            std::to_string(b_ms) + "," + std::to_string(ub_tp) + "," +
            std::to_string(b_tp));
    std::string base = "micro_batch.x";
    base += std::to_string(x);
    report.set(base + ".latency_speedup", ub_ms / b_ms);
    report.add_cell(base + ".unbatched_lat", cells[i * 4]);
    report.add_cell(base + ".batched_lat", cells[i * 4 + 1]);
    report.add_cell(base + ".unbatched_tp", cells[i * 4 + 2]);
    report.add_cell(base + ".batched_tp", cells[i * 4 + 3]);
  }
  hr();
  std::printf("a critical section costs create(4) + acquire(1) + puts + "
              "release(4) WAN RTTs; batching collapses the puts term from x "
              "to 1, so the speedup approaches (9+x)/10 as x grows.\n");
  return 0;
}
