// music_sim: command-line scenario runner for the MUSIC reproduction.
//
// Spins up a simulated multi-site deployment and drives a workload against
// it, printing throughput/latency — a single binary for exploring the
// design space beyond the paper's fixed figures:
//
//   music_sim --profile lUs --mode music --clients 256 --batch 10 ...
//             --value-bytes 1024 --measure-sec 30
//   music_sim --profile lUsEu --mode mscp --lock-backend raft --nodes 9
//   music_sim --workload ycsb --ycsb-mix UR --clients 6
//   music_sim --chaos --measure-sec 120      # with failure injection
//
// Run with --help for the full flag list.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "fault/nemesis.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/driver.h"
#include "workload/runners.h"
#include "workload/ycsb.h"
#include "world/world.h"

using namespace music;

namespace {

struct Options {
  std::string profile = "lUs";
  std::string mode = "music";        // music | mscp
  std::string lock_backend = "lwt";  // lwt | raft
  std::string workload = "cs";       // cs | ycsb
  std::string ycsb_mix = "UR";       // R | UR | U
  int nodes = 3;
  int clients = 16;
  int batch = 1;
  size_t value_bytes = 10;
  int measure_sec = 30;
  int warmup_sec = 3;
  uint64_t seed = 1;
  bool chaos = false;
  std::string nemesis;  // fault schedule script ("" = no nemesis)
  bool latency_mode = false;  // single-thread latency instead of throughput
  std::string trace_out;      // Chrome trace_event JSON ("" = tracing off)
  std::string metrics_out;    // metrics dump; .csv -> CSV, else JSON
};

void usage() {
  std::printf(R"(music_sim - MUSIC reproduction scenario runner

  --profile 11|lUs|lUsEu   Table II latency profile        (default lUs)
  --mode music|mscp        criticalPut via quorum or LWT   (default music)
  --lock-backend lwt|raft  lock-store substrate (SX-A1)    (default lwt)
  --workload cs|ycsb       critical sections or YCSB       (default cs)
  --ycsb-mix R|UR|U        YCSB operation mix              (default UR)
  --nodes N                store nodes, interleaved sites  (default 3)
  --clients N              concurrent clients              (default 16)
  --batch N                criticalPuts per section        (default 1)
  --value-bytes N          payload size                    (default 10)
  --measure-sec N          measurement window              (default 30)
  --warmup-sec N           warmup                          (default 3)
  --seed N                 simulation seed                 (default 1)
  --latency                single-thread latency run
  --chaos                  inject randomized replica crashes and partitions
  --nemesis "SCRIPT"       run a scripted fault schedule (docs/FAULTS.md), e.g.
                           "at 5s partition 0|1,2 for 3s; at 10s gray 0<>1
                           loss 0.2 delay 20ms for 5s; at 12s crash store 1
                           for 2s"; times are absolute sim time incl. warmup
  --trace-out PATH         write a Chrome trace_event JSON of the run
                           (load in chrome://tracing or Perfetto)
  --metrics-out PATH       write counters/histograms; .csv -> CSV, else JSON
  --help                   this text
)");
}

bool parse(int argc, char** argv, Options& o) {
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--profile") o.profile = need(i);
    else if (a == "--mode") o.mode = need(i);
    else if (a == "--lock-backend") o.lock_backend = need(i);
    else if (a == "--workload") o.workload = need(i);
    else if (a == "--ycsb-mix") o.ycsb_mix = need(i);
    else if (a == "--nodes") o.nodes = std::atoi(need(i));
    else if (a == "--clients") o.clients = std::atoi(need(i));
    else if (a == "--batch") o.batch = std::atoi(need(i));
    else if (a == "--value-bytes") o.value_bytes = static_cast<size_t>(std::atoll(need(i)));
    else if (a == "--measure-sec") o.measure_sec = std::atoi(need(i));
    else if (a == "--warmup-sec") o.warmup_sec = std::atoi(need(i));
    else if (a == "--seed") o.seed = static_cast<uint64_t>(std::atoll(need(i)));
    else if (a == "--latency") o.latency_mode = true;
    else if (a == "--chaos") o.chaos = true;
    else if (a == "--nemesis") o.nemesis = need(i);
    else if (a == "--trace-out") o.trace_out = need(i);
    else if (a == "--metrics-out") o.metrics_out = need(i);
    else if (a == "--help" || a == "-h") { usage(); std::exit(0); }
    else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", argv[i]);
      return false;
    }
  }
  return true;
}

/// The deployment a run drives: clients round-robin over the 3 sites.
world::Options world_options(const Options& o) {
  world::Options w;
  w.seed = o.seed;
  w.net.profile = sim::LatencyProfile::by_name(o.profile);
  w.store_nodes = o.nodes;
  w.locks = o.lock_backend == "raft" ? world::LockBackend::Raft
                                     : world::LockBackend::Lwt;
  w.music.put_mode =
      o.mode == "mscp" ? core::PutMode::Lwt : core::PutMode::Quorum;
  w.music.t_max_cs = sim::sec(3600);
  w.music.holder_timeout = sim::sec(8);
  w.music.fd_interval = sim::sec(2);
  w.failure_detector = true;
  for (int i = 0; i < o.clients; ++i) w.client_sites.push_back(i % 3);
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return 2;

  world::MusicWorld d(world_options(o));
  std::unique_ptr<obs::Tracer> tracer;
  obs::MetricsRegistry metrics;
  if (!o.trace_out.empty() || !o.metrics_out.empty()) {
    tracer = std::make_unique<obs::Tracer>();
    tracer->set_registry(&metrics);
    d.sim.set_tracer(tracer.get());
  }
  // --nemesis and --chaos arm one nemesis: a crash the other schedule
  // already holds down is skipped, not doubled.
  std::unique_ptr<fault::Nemesis> nemesis;
  if (!o.nemesis.empty() || o.chaos) {
    nemesis = std::make_unique<fault::Nemesis>(d.sim, d.net, d.nemesis_hooks());
  }
  if (!o.nemesis.empty()) {
    std::string err;
    auto schedule = fault::Schedule::parse(o.nemesis, &err);
    // A clause naming a replica the group lacks is refused like a typo.
    for (size_t i = 0; schedule && err.empty() && i < schedule->size(); ++i) {
      err = fault::group_target_error(schedule->specs()[i],
                                      d.store.num_replicas());
    }
    if (!schedule || !err.empty()) {
      std::fprintf(stderr, "bad --nemesis script: %s\n", err.c_str());
      return 2;
    }
    nemesis->arm(*schedule);
    std::printf("nemesis schedule:\n%s", schedule->describe().c_str());
  }
  if (o.chaos) {
    fault::Schedule chaos = fault::chaos_schedule(
        o.seed * 31 + 5, 0, sim::sec(o.warmup_sec + o.measure_sec),
        d.net.num_sites(), d.store.num_replicas(),
        static_cast<int>(d.replicas.size()));
    nemesis->arm(chaos);
    std::printf("chaos schedule:\n%s", chaos.describe().c_str());
  }

  std::shared_ptr<wl::Workload> workload;
  std::shared_ptr<wl::YcsbWorkload> ycsb;
  if (o.workload == "ycsb") {
    auto mix = o.ycsb_mix == "R"   ? wl::YcsbMix::r()
               : o.ycsb_mix == "U" ? wl::YcsbMix::u()
                                   : wl::YcsbMix::ur();
    ycsb = std::make_shared<wl::YcsbWorkload>(d.client_ptrs(), mix, 1000,
                                              o.value_bytes, o.seed * 97);
    workload = ycsb;
  } else {
    workload = std::make_shared<wl::MusicCsWorkload>(d.client_ptrs(), "cli",
                                                     o.batch, o.value_bytes);
  }

  std::printf("music_sim: profile=%s mode=%s lock-backend=%s workload=%s "
              "nodes=%d clients=%d batch=%d value=%zuB chaos=%s\n",
              o.profile.c_str(), o.mode.c_str(), o.lock_backend.c_str(),
              o.workload.c_str(), o.nodes, o.clients, o.batch, o.value_bytes,
              o.chaos ? "on" : "off");

  wl::RunResult r;
  if (o.latency_mode) {
    r = wl::run_sequential(d.sim, workload, o.measure_sec,
                           sim::sec(o.measure_sec * 60));
    std::printf("latency over %llu ops: mean %.1f ms, p50 %.1f, p99 %.1f\n",
                static_cast<unsigned long long>(r.completed),
                r.latency.mean_ms(), r.latency.percentile_ms(50),
                r.latency.percentile_ms(99));
  } else {
    wl::DriverConfig cfg;
    cfg.clients = o.clients;
    cfg.warmup = sim::sec(o.warmup_sec);
    cfg.measure = sim::sec(o.measure_sec);
    r = wl::run_closed_loop(d.sim, workload, cfg);
    std::printf("throughput: %.1f op/s (%.1f writes/s), mean latency %.1f ms, "
                "p99 %.1f ms, completed=%llu failed=%llu\n",
                r.throughput(), r.throughput() * o.batch,
                r.latency.mean_ms(), r.latency.percentile_ms(99),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.failed));
  }
  if (ycsb) {
    std::printf("ycsb: %llu ops, %.1f%% lock collisions\n",
                static_cast<unsigned long long>(ycsb->operations()),
                ycsb->operations() > 0
                    ? 100.0 * static_cast<double>(ycsb->collisions()) /
                          static_cast<double>(ycsb->operations())
                    : 0.0);
  }
  core::ClientStats cstats;
  for (auto& c : d.clients) {
    const core::ClientStats& s = c->stats();
    cstats.attempts += s.attempts;
    cstats.retries += s.retries;
    cstats.retry_exhausted += s.retry_exhausted;
    cstats.deadline_exceeded += s.deadline_exceeded;
    cstats.demotions += s.demotions;
  }
  if (nemesis) {
    const fault::Nemesis::Counters& nc = nemesis->counters();
    std::printf("nemesis: %llu partitions, %llu link faults, %llu store "
                "crashes, %llu music crashes, %llu heals (%zu still open)\n",
                static_cast<unsigned long long>(nc.partitions),
                static_cast<unsigned long long>(nc.link_faults),
                static_cast<unsigned long long>(nc.store_crashes),
                static_cast<unsigned long long>(nc.music_crashes),
                static_cast<unsigned long long>(nc.heals),
                nemesis->open_faults());
  }
  if (nemesis || cstats.retries != 0) {
    std::printf("client retries: %llu attempts, %llu retried, %llu exhausted, "
                "%llu past deadline, %llu replica demotions\n",
                static_cast<unsigned long long>(cstats.attempts),
                static_cast<unsigned long long>(cstats.retries),
                static_cast<unsigned long long>(cstats.retry_exhausted),
                static_cast<unsigned long long>(cstats.deadline_exceeded),
                static_cast<unsigned long long>(cstats.demotions));
  }
  std::printf("simulated %.1f s in %llu events\n", sim::to_sec(d.sim.now()),
              static_cast<unsigned long long>(d.sim.events_run()));

  if (tracer) {
    d.net.export_metrics(metrics);
    if (nemesis) nemesis->export_metrics(metrics);
    metrics.set("client.attempts", cstats.attempts);
    metrics.set("client.retries", cstats.retries);
    metrics.set("client.retry_exhausted", cstats.retry_exhausted);
    metrics.set("client.deadline_exceeded", cstats.deadline_exceeded);
    metrics.set("client.demotions", cstats.demotions);
    metrics.set("sim.events_run", d.sim.events_run());
    metrics.set("sim.now_us", static_cast<uint64_t>(d.sim.now()));
    metrics.set("run.completed", r.completed);
    metrics.set("run.failed", r.failed);
    metrics.set("trace.spans", tracer->spans().size());
    metrics.set("trace.dropped_spans", tracer->dropped_spans());
    for (auto& rep : d.replicas) {
      const core::MusicStats& st = rep->stats();
      std::string p = "music.s" + std::to_string(rep->site()) + ".";
      metrics.set(p + "create_lock_ref", st.create_lock_ref);
      metrics.set(p + "acquire_attempts", st.acquire_attempts);
      metrics.set(p + "acquire_granted", st.acquire_granted);
      metrics.set(p + "synchronizations", st.synchronizations);
      metrics.set(p + "critical_puts", st.critical_puts);
      metrics.set(p + "critical_gets", st.critical_gets);
      metrics.set(p + "releases", st.releases);
      metrics.set(p + "forced_releases", st.forced_releases);
    }
    bool ok = true;
    if (!o.trace_out.empty()) {
      ok = obs::write_file(o.trace_out, obs::chrome_trace_json(*tracer)) && ok;
      std::printf("trace: %zu spans (%llu dropped) -> %s\n",
                  tracer->spans().size(),
                  static_cast<unsigned long long>(tracer->dropped_spans()),
                  o.trace_out.c_str());
    }
    if (!o.metrics_out.empty()) {
      bool csv = o.metrics_out.size() >= 4 &&
                 o.metrics_out.compare(o.metrics_out.size() - 4, 4, ".csv") == 0;
      ok = obs::write_file(o.metrics_out, csv ? obs::metrics_csv(metrics)
                                              : obs::metrics_json(metrics)) &&
           ok;
      std::printf("metrics: %s -> %s\n", csv ? "csv" : "json",
                  o.metrics_out.c_str());
    }
    d.sim.set_tracer(nullptr);
    if (!ok) return 1;
  }
  return 0;
}
