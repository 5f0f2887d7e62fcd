// bench_pdes: intra-world scaling of the conservative PDES engine.
//
// One 64-group / 8-site sharded MUSIC world (every group's three replicas
// staggered round-robin across the sites, so work spreads over all eight
// site lanes), driven by 32 closed-loop clients, executed five ways: the
// classic single-threaded kernel, then PDES at 1/2/4/8 shard workers.
// Reported per config: kernel events/sec (simulated events per host
// second), plus two derived headlines —
//
//   parity_w1_vs_classic   single-worker PDES vs classic (target: >= 0.90,
//                          the windowed engine's bookkeeping should cost
//                          under 10%)
//   speedup_w8_vs_w1       8 workers vs 1 (target: >= 3.0 on >= 8 cores;
//                          skipped on smaller hosts, where the extra
//                          threads only add barrier overhead)
//
// Every PDES run must also produce the SAME workload fingerprint — the
// bench doubles as a determinism check; a mismatch exits nonzero.
//
//   bench_pdes [--smoke] [--tolerance F]
//     --smoke        short virtual window (CI)
//     --tolerance F  allowed parity shortfall (default 0.10)
//
// Writes BENCH_pdes.json; CI diffs events_per_sec_aggregate against
// bench/baseline/BENCH_pdes.json with tools/check_perf.py.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client.h"
#include "cluster/cluster.h"
#include "common.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace music {
namespace {

/// FNV-1a 64-bit over each client's op log; per-client logs folded in cid
/// order keep the fingerprint worker-count invariant.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ull;
  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

struct Outcome {
  uint64_t events = 0;
  double wall_sec = 0.0;
  uint64_t ops = 0;
  uint64_t fingerprint = 0;

  double events_per_sec() const {
    return wall_sec > 0.0 ? static_cast<double>(events) / wall_sec : 0.0;
  }
};

/// One client's closed loop: critical sections over its keys until the
/// virtual deadline.
sim::Task<void> client_loop(sim::Simulation& sim, cluster::Client& c,
                            std::vector<Key> keys, sim::Time deadline,
                            Fnv& log, uint64_t& ops) {
  size_t i = 0;
  while (sim.now() < deadline) {
    const Key& key = keys[i++ % keys.size()];
    auto ref = co_await c.create_lock_ref(key);
    if (!ref.ok()) continue;
    if (!(co_await c.acquire_lock_blocking(key, ref.value())).ok()) continue;
    (void)co_await c.critical_put(key, ref.value(), Value("v"));
    (void)co_await c.release_lock(key, ref.value());
    ++ops;
    log.mix(static_cast<uint64_t>(sim.now()));
  }
}

/// Keys owned by groups HOMED at `site` (probed deterministically): keeps
/// every shared group client single-lane under PDES, and is the sane
/// locality-aware placement anyway.
std::vector<Key> keys_homed_at(cluster::Cluster& cl, int site, int salt,
                               int want) {
  auto map = cl.snapshot();
  std::vector<Key> out;
  for (int i = salt; static_cast<int>(out.size()) < want && i < salt + 4096;
       ++i) {
    Key key = "k";
    key += std::to_string(i);
    int g = map->group_of(map->route(key));
    for (int k = 0; k < 3; ++k) {
      if (cl.home_site(g, k) == site) {
        out.push_back(key);
        break;
      }
    }
  }
  return out;
}

/// Builds and runs the 64-group world.  `pdes_workers` == 0 -> classic.
Outcome run_world(size_t pdes_workers, sim::Duration measure) {
  world::Options opt;
  opt.net.profile = sim::LatencyProfile::uniform(8, 40.0, 0.2);
  opt.pdes_workers = pdes_workers;
  opt.failure_detector = true;
  world::ClusterWorld w(opt, /*shards=*/64, /*groups=*/0, /*sites=*/8);
  sim::Simulation& sim = w.sim;

  constexpr int kClients = 32;
  std::vector<Fnv> logs(kClients);
  std::vector<uint64_t> ops(kClients, 0);
  bench::WallTimer timer;
  for (int cid = 0; cid < kClients; ++cid) {
    int site = cid % 8;
    sim::spawn(sim, client_loop(sim, w.add_client(site),
                                keys_homed_at(w.cluster, site, cid * 53, 4),
                                measure,
                                logs[static_cast<size_t>(cid)],
                                ops[static_cast<size_t>(cid)]));
  }
  sim.run_until(measure);

  Outcome out;
  out.events = sim.events_run();
  out.wall_sec = timer.elapsed_sec();
  Fnv fp;
  for (int cid = 0; cid < kClients; ++cid) {
    out.ops += ops[static_cast<size_t>(cid)];
    fp.mix(logs[static_cast<size_t>(cid)].h);
    fp.mix(ops[static_cast<size_t>(cid)]);
  }
  fp.mix(out.events);
  out.fingerprint = fp.h;
  return out;
}

int run(bool smoke, double tolerance) {
  const sim::Duration measure = smoke ? sim::sec(20) : sim::sec(60);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("bench_pdes: 64 groups / 8 sites / 32 clients, %llds virtual"
              " (%u hardware threads)\n",
              static_cast<long long>(measure / 1'000'000), hw);
  std::printf("  %-10s %12s %9s %14s %8s\n", "config", "events", "wall_s",
              "events/sec", "ops");

  bench::BenchReport report("pdes");
  auto record = [&](const char* label, const Outcome& o) {
    bench::CellResult c;
    c.events = o.events;
    c.wall_sec = o.wall_sec;
    report.add_cell(label, c);
    std::printf("  %-10s %12llu %9.2f %14.0f %8llu\n", label,
                static_cast<unsigned long long>(o.events), o.wall_sec,
                o.events_per_sec(), static_cast<unsigned long long>(o.ops));
  };

  // The parity gate compares wall-clock rates, which one short run on a
  // shared host cannot pin (single runs of one binary spread 0.75-1.63):
  // classic and single-worker PDES run alternately kParityReps times and
  // each side's median run is the one reported and gated.
  constexpr int kParityReps = 5;
  std::vector<Outcome> classic_runs, w1_runs;
  for (int rep = 0; rep < kParityReps; ++rep) {
    classic_runs.push_back(run_world(0, measure));
    w1_runs.push_back(run_world(1, measure));
  }
  auto median = [](std::vector<Outcome> runs) {
    std::sort(runs.begin(), runs.end(), [](const Outcome& a, const Outcome& b) {
      return a.events_per_sec() < b.events_per_sec();
    });
    return runs[runs.size() / 2];
  };
  Outcome classic = median(classic_runs);
  record("classic", classic);

  const size_t worker_configs[] = {1, 2, 4, 8};
  std::vector<Outcome> pdes;
  for (size_t w : worker_configs) {
    pdes.push_back(w == 1 ? median(w1_runs) : run_world(w, measure));
    std::string label = "pdes_w";
    label += std::to_string(w);
    record(label.c_str(), pdes.back());
  }

  int rc = 0;
  // Determinism: every PDES run, at every worker count, must reproduce the
  // same bits.
  for (const Outcome& o : w1_runs) {
    if (o.fingerprint != pdes[0].fingerprint || o.events != pdes[0].events) {
      std::printf("FAIL: repeated pdes_w1 runs diverge\n");
      rc = 1;
    }
  }
  for (size_t i = 1; i < pdes.size(); ++i) {
    if (pdes[i].fingerprint != pdes[0].fingerprint ||
        pdes[i].events != pdes[0].events) {
      std::printf("FAIL: pdes_w%zu fingerprint/events diverge from pdes_w1\n",
                  worker_configs[i]);
      rc = 1;
    }
  }

  double parity = classic.events_per_sec() > 0.0
                      ? pdes[0].events_per_sec() / classic.events_per_sec()
                      : 0.0;
  report.set("parity_w1_vs_classic", parity);
  std::printf("  parity  pdes_w1 / classic = %.3f (target >= %.2f)\n", parity,
              1.0 - tolerance);
  if (parity < 1.0 - tolerance) {
    std::printf("FAIL: single-worker PDES more than %.0f%% below classic\n",
                tolerance * 100.0);
    rc = 1;
  }

  double speedup = pdes[0].events_per_sec() > 0.0
                       ? pdes.back().events_per_sec() / pdes[0].events_per_sec()
                       : 0.0;
  report.set("speedup_w8_vs_w1", speedup);
  if (hw >= 8) {
    std::printf("  speedup pdes_w8 / pdes_w1 = %.2fx (target >= 3.0)\n",
                speedup);
    if (speedup < 3.0) {
      std::printf("FAIL: 8-worker speedup below 3x on a >= 8-core host\n");
      rc = 1;
    }
  } else {
    std::printf("  speedup pdes_w8 / pdes_w1 = %.2fx"
                " (gate skipped: %u hardware threads < 8)\n",
                speedup, hw);
  }
  return rc;
}

}  // namespace
}  // namespace music

int main(int argc, char** argv) {
  bool smoke = false;
  double tolerance = 0.10;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: bench_pdes [--smoke] [--tolerance F]\n");
      return 2;
    }
  }
  return music::run(smoke, tolerance);
}
