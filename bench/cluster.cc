// bench_cluster: horizontal scaling of the sharded MUSIC cluster.
//
// The paper deploys MUSIC as ONE lock/data domain; the cluster layer
// (src/cluster/) shards the keyspace over N such domains behind one
// shard-aware client.  This bench measures what that buys: aggregate
// criticalPut sections/sec as the shard count sweeps 1 -> 64 under a fixed
// client population, paper-style methodology otherwise — closed loop,
// non-overlapping per-client key ranges (§VIII-a), 10B values — with a
// Zipfian(theta=0.99) hotspot inside every client's range.
//
// Topology: the co-located 1ms-RTT "local" profile, so the sweep isolates
// group *capacity* (each group's store replicas model 8 service workers at
// 190us/op — see ds::StoreConfig) rather than WAN round trips: with
// per-client key ranges there are no lock collisions, so throughput is
// service-capacity-bound and must grow monotonically with the group count
// until the closed loop itself saturates.  The harness ENFORCES
// monotonicity over 1 -> 16 (exit 1 on a regression); 32 and 64 are
// reported for the tail of the curve.
//
// Full sweep: 10^4 clients x 100 keys each (10^6-key space), shards
// {1,2,4,8,16,32,64}.  --smoke: 2000 clients, shards {1,4,16}, shorter
// windows — the CI perf gate (tools/check_perf.py vs
// bench/baseline/BENCH_cluster.json) runs this mode.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "cluster/cluster.h"
#include "common.h"
#include "workload/zipfian.h"

using namespace music;
using namespace music::bench;

namespace {

struct SweepConfig {
  int shards = 1;
  int clients = 10000;
  uint64_t keys_per_client = 100;
  double theta = 0.99;
  size_t value_size = 10;
  uint64_t seed = 1;
  sim::Duration warmup = sim::ms(500);
  sim::Duration measure = sim::sec(2);
};

/// One logical client's op: a full Listing 1 update section on a key drawn
/// Zipfian-hot from that client's OWN 100-key range ("u<cid>/k<rank>") —
/// the paper's non-overlapping-range methodology, so lock queues never
/// collide and the sweep measures capacity, not convoys.
class ClusterSweepWorkload : public wl::Workload {
 public:
  ClusterSweepWorkload(std::vector<std::unique_ptr<cluster::Client>> clients,
                       uint64_t keys_per_client, double theta,
                       size_t value_size, uint64_t seed)
      : clients_(std::move(clients)),
        zipf_(keys_per_client, theta),
        value_size_(value_size),
        rng_(seed) {}

  sim::Task<bool> run_once(int cid) override {
    auto& c = *clients_[static_cast<size_t>(cid) % clients_.size()];
    // Built stepwise: GCC 12 -Werror=restrict mis-fires on literal +
    // to_string rvalue concats inside coroutine frames (see world::CdbWorld).
    Key key = "u";
    key += std::to_string(cid);
    key += "/k";
    key += std::to_string(zipf_.next(rng_));
    auto ref = co_await c.create_lock_ref(key);
    if (!ref.ok()) co_return false;
    auto acq = co_await c.acquire_lock_blocking(key, ref.value());
    if (!acq.ok()) {
      co_await c.remove_lock_ref(key, ref.value());
      co_return false;
    }
    // Tiny payload, cost-modelled at the spec size (see common::Value).
    bool ok = (co_await c.critical_put(key, ref.value(),
                                       Value("v", value_size_)))
                  .ok();
    co_await c.release_lock(key, ref.value());
    co_return ok;
  }

  const cluster::ClusterClientStats& client_stats(size_t i) const {
    return clients_[i]->stats();
  }
  size_t num_clients() const { return clients_.size(); }

 private:
  std::vector<std::unique_ptr<cluster::Client>> clients_;
  wl::Zipfian zipf_;
  size_t value_size_;
  sim::Rng rng_;
};

struct SweepCell {
  CellResult cell;
  uint64_t critical_puts = 0;       // cluster-wide, all groups
  uint64_t admitted = 0;            // ops through the epoch gate
  uint64_t wrong_shard_retries = 0; // client-side re-routes
  double p50_ms = 0;
  double p99_ms = 0;
};

SweepCell run_one(const SweepConfig& cfg) {
  WallTimer wall;
  world::Options opt;
  opt.seed = cfg.seed;
  opt.net.profile = sim::LatencyProfile::uniform(3, 1.0, 0.2);  // "local"
  // Pre-size for the hot head of every client's range; the Zipfian tail
  // rarely materialises inside the window, so rehashing stays off the
  // measured path.
  opt.store.expected_keys = 1 << 15;
  opt.music.holder_timeout = sim::sec(8);
  opt.music.fd_interval = sim::sec(2);
  opt.failure_detector = true;
  for (int i = 0; i < cfg.clients; ++i) opt.client_sites.push_back(i % 3);
  world::ClusterWorld cw(opt, cfg.shards);
  sim::Simulation& sim = cw.sim;
  cluster::Cluster& cluster = cw.cluster;

  auto w = std::make_shared<ClusterSweepWorkload>(
      std::move(cw.clients), cfg.keys_per_client, cfg.theta, cfg.value_size,
      cfg.seed ^ 0xC1A57E12ull);

  wl::DriverConfig dcfg;
  dcfg.clients = cfg.clients;
  dcfg.warmup = cfg.warmup;
  dcfg.measure = cfg.measure;
  dcfg.drain = sim::sec(5);
  // 10^4 clients complete millions of sections: reservoir-subsample the
  // latencies (throughput stays exact; see wl::Samples).
  dcfg.max_latency_samples = 1 << 16;
  dcfg.latency_sample_seed = cfg.seed * 0x9E3779B97F4A7C15ull +
                             static_cast<uint64_t>(cfg.shards);

  SweepCell out;
  out.cell.run = wl::run_closed_loop(sim, w, dcfg);
  out.cell.events = sim.events_run();
  out.cell.wall_sec = wall.elapsed_sec();
  out.critical_puts = cluster.total_critical_puts();
  out.admitted = cluster.stats().admitted;
  for (size_t i = 0; i < w->num_clients(); ++i) {
    out.wrong_shard_retries += w->client_stats(i).wrong_shard_retries;
  }
  out.p50_ms = out.cell.run.latency.percentile_ms(50);
  out.p99_ms = out.cell.run.latency.percentile_ms(99);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::vector<int> shard_counts =
      smoke ? std::vector<int>{1, 4, 16}
            : std::vector<int>{1, 2, 4, 8, 16, 32, 64};
  SweepConfig base;
  if (smoke) {
    base.clients = 2000;
    base.warmup = sim::ms(500);
    base.measure = sim::sec(1);
  }

  BenchReport report("cluster");
  std::printf("Cluster scaling: criticalPut sections/sec vs shard count "
              "(%d clients, %llu-key ranges, Zipfian %.2f, local profile%s)\n",
              base.clients,
              static_cast<unsigned long long>(base.keys_per_client),
              base.theta, smoke ? ", --smoke" : "");
  std::printf("expected: monotonic growth 1 -> 16 shards (each group adds "
              "store service capacity)\n");
  hr();
  std::printf("%6s | %14s %8s | %8s %8s %8s | %10s %9s\n", "shards",
              "criticalPuts/s", "vs sh1", "mean ms", "p50 ms", "p99 ms",
              "puts", "Mev/s");

  std::vector<SweepConfig> configs;
  for (int s : shard_counts) {
    SweepConfig c = base;
    c.shards = s;
    configs.push_back(c);
  }
  auto cells = par::run_worlds(configs, run_one, bench_threads());

  Csv csv("cluster.csv");
  csv.row("shards,clients,critical_puts_per_sec,mean_ms,p50_ms,p99_ms,"
          "critical_puts_total,wrong_shard_retries,events,wall_sec");
  double sh1_rate = 0;
  std::vector<double> rates;
  for (size_t i = 0; i < cells.size(); ++i) {
    const SweepCell& c = cells[i];
    int shards = shard_counts[i];
    double rate = c.cell.run.throughput();
    rates.push_back(rate);
    if (shards == 1) sh1_rate = rate;
    std::printf("%6d | %14.0f %7.2fx | %8.2f %8.2f %8.2f | %10llu %9.2f\n",
                shards, rate, sh1_rate > 0 ? rate / sh1_rate : 0.0,
                c.cell.run.latency.mean_ms(), c.p50_ms, c.p99_ms,
                static_cast<unsigned long long>(c.critical_puts),
                c.cell.events_per_sec() / 1e6);
    csv.row(std::to_string(shards) + "," + std::to_string(base.clients) +
            "," + std::to_string(rate) + "," +
            std::to_string(c.cell.run.latency.mean_ms()) + "," +
            std::to_string(c.p50_ms) + "," + std::to_string(c.p99_ms) + "," +
            std::to_string(c.critical_puts) + "," +
            std::to_string(c.wrong_shard_retries) + "," +
            std::to_string(c.cell.events) + "," +
            std::to_string(c.cell.wall_sec));
    std::string label = "cluster.sh" + std::to_string(shards);
    report.set(label + ".critical_puts_per_sec", rate);
    report.set(label + ".p99_ms", c.p99_ms);
    report.add_cell(label, c.cell);
  }
  hr();

  // The acceptance gate: throughput must not shrink as shards grow, up
  // through 16.  (32/64 ride the flattening tail as the closed loop runs
  // out of demand; they are reported, not gated.)
  bool monotonic = true;
  for (size_t i = 1; i < rates.size() && shard_counts[i] <= 16; ++i) {
    if (rates[i] <= rates[i - 1]) {
      std::printf("FAIL: criticalPuts/s fell %.0f -> %.0f going %d -> %d "
                  "shards\n", rates[i - 1], rates[i], shard_counts[i - 1],
                  shard_counts[i]);
      monotonic = false;
    }
  }
  size_t last_gated = 0;
  for (size_t i = 0; i < rates.size(); ++i) {
    if (shard_counts[i] <= 16) last_gated = i;
  }
  report.set("cluster.scaling_1_to_16", sh1_rate > 0
                                            ? rates[last_gated] / sh1_rate
                                            : 0.0);
  report.set("cluster.monotonic_1_to_16", monotonic ? 1.0 : 0.0);
  // At full scale the 1-shard world can be so oversubscribed that nothing
  // completes inside the measure window (sh1 rate 0): skip the ratio then.
  if (sh1_rate > 0) {
    std::printf("monotonic 1 -> %d shards: %s (x%.2f over single-group "
                "MUSIC)\n", shard_counts[last_gated],
                monotonic ? "yes" : "NO", rates[last_gated] / sh1_rate);
  } else {
    std::printf("monotonic 1 -> %d shards: %s (single-group MUSIC "
                "saturated: 0 completions in the measure window)\n",
                shard_counts[last_gated], monotonic ? "yes" : "NO");
  }
  return monotonic ? 0 : 1;
}
