// perfbench_gen: the benchmark's load generator.
//
//   perfbench_gen sim --workload NAME --seed N --worlds K [--trace 0|1]
//   perfbench_gen fleet --ports P0,P1,P2 --seed N --solo-sections M
//                       --conc-sections N [--trace 0|1]
//   perfbench_gen selftest
//
// Prints one JSON object (the raw measurements) as the last stdout line;
// perfbench/run.py turns it into the benchmark's metrics.
#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "fleet.h"
#include "json_out.h"
#include "sim_worlds.h"

namespace perfbench {
namespace {

/// PDES worker threads for cluster-wide.
constexpr int kPdesWorkers = 4;
/// Extra world builds per run, so setup_s is a median of several.
constexpr int kSetupReps = 5;

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

uint64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss);
}

void provenance(JsonOut& j) {
  j.field("nproc", nproc());
  j.field("compiler", __VERSION__);
  j.field("build_type", PERFBENCH_BUILD_TYPE);
}

template <typename T>
void array_of_arrays(JsonOut& j, const char* key,
                     const std::array<std::vector<T>, kNumOps>& v) {
  j.key(key).begin_object();
  for (int op = 0; op < kNumOps; ++op) j.array(op_name(op), v[static_cast<size_t>(op)]);
  j.end_object();
}

void write_world(JsonOut& j, const WorldOut& o, bool trace,
                 const WorldOut& untraced) {
  j.begin_object();
  j.field("seed", o.seed);
  j.field("setup_s", o.setup_s);
  j.field("run_host_s", o.run_host_s);
  j.field("run_cpu_s", o.run_cpu_s);
  if (trace) {
    // The same world untraced: host time, events and allocations without
    // the tracer's own work.
    j.key("untraced").begin_object();
    j.field("run_host_s", untraced.run_host_s);
    j.field("run_cpu_s", untraced.run_cpu_s);
    j.field("events", untraced.events);
    j.field("allocs", untraced.allocs);
    j.field("alloc_bytes", untraced.alloc_bytes);
    j.end_object();
  }
  j.field("sim_s", o.sim_s);
  j.field("warmup_s", o.warmup_s);
  j.field("stop_s", o.stop_s);
  j.field("fault_s", o.fault_s);
  j.field("heal_s", o.heal_s);
  j.array("lat_us", o.lat_us);
  j.array("solo_us", o.solo_us);
  j.field("attempted", o.attempted);
  j.field("failed", o.failed);
  j.field("ok_total", o.ok_total);
  j.field("cs_per_s", o.cs_per_s);
  j.array("rate", o.rate);
  j.field("events", o.events);
  j.field("windows", o.windows);
  j.field("allocs", o.allocs);
  j.field("alloc_bytes", o.alloc_bytes);
  j.key("music").begin_object();
  j.field("acquire_attempts", o.music.acquire_attempts);
  j.field("acquire_granted", o.music.acquire_granted);
  j.field("synchronizations", o.music.synchronizations);
  j.field("forced_releases", o.music.forced_releases);
  j.field("rejected_not_holder", o.music.rejected_not_holder);
  j.end_object();
  j.key("client").begin_object();
  j.field("attempts", o.client.attempts);
  j.field("retries", o.client.retries);
  j.end_object();
  j.key("net").begin_object();
  j.field("paxos_msgs", o.paxos_msgs);
  j.field("quorum_msgs", o.quorum_msgs);
  j.field("wan_msgs", o.wan_msgs);
  j.field("bytes", o.net_bytes);
  j.end_object();
  j.field("violations", o.violations);
  j.field("violation_report", o.violation_report);
  j.array("errors", o.errors);
  if (trace) {
    array_of_arrays(j, "op_us", o.op_us);
    array_of_arrays(j, "rtts", o.rtts);
    j.field("uncontended_sections", o.uncontended_sections);
    j.key("span_self_us").begin_object();
    for (const auto& [name, agg] : o.span_self) {
      j.key(name).begin_array().value(agg.first).value(agg.second).end_array();
    }
    j.end_object();
    j.field("dropped_spans", o.dropped_spans);
    j.array("invoke_us", o.invoke_us);
    write_wire(j, o.wire);
  }
  j.end_object();
}

bool parse_workload(const std::string& name, Workload* w) {
  if (name == "wan-queue") *w = Workload::kWanQueue;
  else if (name == "wan-contended") *w = Workload::kWanContended;
  else if (name == "cluster-wide") *w = Workload::kClusterWide;
  else return false;
  return true;
}

int run_sim(const std::string& workload, uint64_t seed, int worlds,
            bool trace) {
  Workload w;
  if (!parse_workload(workload, &w) || worlds < 1) {
    std::fprintf(stderr, "perfbench_gen: bad workload or world count\n");
    return 2;
  }
  const int workers = w == Workload::kClusterWide ? kPdesWorkers : 0;
  if (workers > nproc()) {
    std::fprintf(stderr,
                 "perfbench_gen: refusing %d PDES workers on %d cores\n",
                 workers, nproc());
    return 2;
  }
  JsonOut j;
  j.begin_object();
  j.field("mode", "sim");
  j.field("workload", workload);
  provenance(j);
  j.field("pdes_workers", workers);
  // World seeds derive from the run seed: same seed, same inputs.
  auto world_seed = [seed](int i) {
    return seed * 1000 + static_cast<uint64_t>(i) + 1;
  };
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    setups.push_back(run_world(w, world_seed(i), false,
                               static_cast<size_t>(workers), 0, true)
                         .setup_s);
  }
  j.array("setup_only_s", setups);
  j.key("worlds").begin_array();
  for (int i = 0; i < worlds; ++i) {
    WorldOut untraced;
    if (trace) {
      // Same seed, same simulated work: the host-time ratio of the two
      // runs is the tracing overhead.
      untraced = run_world(w, world_seed(i), false, static_cast<size_t>(workers));
    }
    WorldOut o = run_world(w, world_seed(i), trace, static_cast<size_t>(workers));
    write_world(j, o, trace, untraced);
  }
  j.end_array();
  j.field("peak_rss_kb", peak_rss_kb());
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

/// The alloc interposer counts exactly under concurrent threads, and a PDES
/// world's totals do not depend on the worker count.
int selftest() {
  int failures = 0;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200000;
  std::atomic<bool> go{false};
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        int* p = new int(i);
        asm volatile("" : : "g"(p) : "memory");
        delete p;
      }
      finished.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  AllocTotals before = alloc_totals();
  go.store(true, std::memory_order_release);
  while (finished.load(std::memory_order_acquire) < kThreads) {
  }
  AllocTotals after = alloc_totals();
  for (auto& t : threads) t.join();
  uint64_t want = static_cast<uint64_t>(kThreads) * kPerThread;
  uint64_t got = after.count - before.count;
  std::printf("selftest: %d threads x %d news counted %llu (want %llu)\n",
              kThreads, kPerThread, static_cast<unsigned long long>(got),
              static_cast<unsigned long long>(want));
  if (got != want || after.bytes - before.bytes != want * sizeof(int)) {
    ++failures;
  }

  // PDES: worker threads allocate concurrently.  The simulated work is
  // identical at any worker count; the allocation count is not quite (the
  // engine's per-worker bookkeeping varies by ~0.1% run to run, also with a
  // fully atomic counter), so the check is a 1% band around the 1-worker
  // count plus exact events and sections.
  int workers = nproc() < kPdesWorkers ? nproc() : kPdesWorkers;
  WorldOut w1 = run_world(Workload::kClusterWide, 7, false, 1, 64);
  WorldOut wa = run_world(Workload::kClusterWide, 7, false,
                          static_cast<size_t>(workers), 64);
  WorldOut wb = run_world(Workload::kClusterWide, 7, false,
                          static_cast<size_t>(workers), 64);
  std::printf(
      "selftest: 64-client cluster world allocs w1=%llu w%d=%llu,%llu "
      "events %llu / %llu, sections %llu / %llu\n",
      static_cast<unsigned long long>(w1.allocs), workers,
      static_cast<unsigned long long>(wa.allocs),
      static_cast<unsigned long long>(wb.allocs),
      static_cast<unsigned long long>(w1.events),
      static_cast<unsigned long long>(wa.events),
      static_cast<unsigned long long>(w1.ok_total),
      static_cast<unsigned long long>(wa.ok_total));
  auto drift = [&](const WorldOut& w) {
    double d = static_cast<double>(w.allocs) - static_cast<double>(w1.allocs);
    return (d < 0 ? -d : d) / static_cast<double>(w1.allocs);
  };
  if (w1.events != wa.events || w1.events != wb.events ||
      w1.ok_total != wa.ok_total || drift(wa) > 0.01 || drift(wb) > 0.01) {
    ++failures;
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

std::vector<uint16_t> parse_ports(const std::string& s) {
  std::vector<uint16_t> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(static_cast<uint16_t>(
        std::strtoul(s.substr(pos, comma - pos).c_str(), nullptr, 10)));
    pos = comma + 1;
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_gen sim|fleet|selftest ...\n");
    return 2;
  }
  std::string mode = argv[1];
  std::string workload;
  uint64_t seed = 1;
  int worlds = 1;
  bool trace = false;
  FleetArgs fa;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--worlds") worlds = std::atoi(v.c_str());
    else if (k == "--trace") trace = v == "1";
    else if (k == "--ports") fa.music_ports = parse_ports(v);
    else if (k == "--solo-sections") fa.solo_sections = std::atoi(v.c_str());
    else if (k == "--conc-sections") fa.conc_sections = std::atoi(v.c_str());
    else {
      std::fprintf(stderr, "perfbench_gen: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  if (mode == "sim") return run_sim(workload, seed, worlds, trace);
  if (mode == "selftest") return selftest();
  if (mode == "fleet") {
    if (fa.music_ports.size() != 3) {
      std::fprintf(stderr, "perfbench_gen: fleet needs --ports P0,P1,P2\n");
      return 2;
    }
    fa.seed = seed;
    fa.trace = trace;
    return run_fleet(fa);
  }
  std::fprintf(stderr, "perfbench_gen: unknown mode %s\n", mode.c_str());
  return 2;
}
