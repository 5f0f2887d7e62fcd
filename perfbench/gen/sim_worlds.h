// The simulated workloads and what one world reports.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "section.h"
#include "wire_replay.h"

namespace perfbench {

enum class Workload { kWanQueue, kWanContended, kClusterWide };

/// Replica-side counters summed over every MUSIC replica of the world.
struct MusicTotals {
  uint64_t acquire_attempts = 0;
  uint64_t acquire_granted = 0;
  uint64_t synchronizations = 0;
  uint64_t forced_releases = 0;
  uint64_t rejected_not_holder = 0;
};

/// Client-side counters summed over every core::MusicClient of the world.
struct ClientTotals {
  uint64_t attempts = 0;
  uint64_t retries = 0;
};

struct WorldOut {
  uint64_t seed = 0;
  double setup_s = 0.0;
  double run_host_s = 0.0;
  double run_cpu_s = 0.0;  // generator CPU over the same span, all threads
  /// Simulated seconds: whole run, window start/end, fault start/heal.
  double sim_s = 0.0, warmup_s = 0.0, stop_s = 0.0, fault_s = 0.0,
         heal_s = 0.0;

  std::vector<int64_t> lat_us;   // ok sections started in the window
  std::vector<int64_t> solo_us;  // one client alone
  uint64_t attempted = 0, failed = 0, ok_total = 0;
  std::vector<uint32_t> rate;    // ok completions per simulated second
  double cs_per_s = 0.0;         // sum of the load clients' cycle rates

  uint64_t events = 0, windows = 0;
  uint64_t allocs = 0, alloc_bytes = 0;
  MusicTotals music;
  ClientTotals client;
  uint64_t paxos_msgs = 0, quorum_msgs = 0, wan_msgs = 0, net_bytes = 0;

  uint64_t violations = 0;
  std::string violation_report;
  std::vector<std::string> errors;

  // Traced runs only.
  std::array<std::vector<int64_t>, kNumOps> op_us;
  std::array<std::vector<int64_t>, kNumOps> rtts;  // uncontended sections
  uint64_t uncontended_sections = 0;
  std::map<std::string, std::pair<int64_t, uint64_t>> span_self;  // us, n
  uint64_t dropped_spans = 0;
  std::vector<int64_t> invoke_us;  // client-seam request latency (wan)
  WireSample wire_sample;
  WireStats wire;
};

/// Builds and runs one world.  `workers` is the PDES worker count and
/// `clients` overrides the load-client count (cluster-wide only; 0 keeps
/// the workload's 1024; the self-test uses a smaller world).  `setup_only` returns right after the build.
WorldOut run_world(Workload w, uint64_t seed, bool trace, size_t workers,
                   int clients = 0, bool setup_only = false);

}  // namespace perfbench
