// The loopback-fleet load generator: one process, one thread, one
// TcpTransport (3 connections) into three running musicd processes, with
// core::MusicClient instances wrapped by the ECF oracle's CheckedClient.
//
// Protocol with the orchestrator (perfbench/run.py), over stdin/stdout:
//   -> "READY <setup_us>"   once all 3 routes completed their handshake
//   <- "GO" | "QUIT"
//   -> one JSON line with the phase results
#include "fleet.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc_count.h"
#include "clients.h"
#include "core/client.h"
#include "host_clock.h"
#include "json_out.h"
#include "net/event_loop.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "sim/future.h"
#include "sim/simulation.h"
#include "timed_transport.h"
#include "verify/oracle.h"
#include "wire_replay.h"

namespace perfbench {
namespace {

namespace sim = music::sim;
namespace net = music::net;
namespace wire = music::wire;

/// musicd assigns store nodes ids 0..2 and MUSIC replicas 3..5.
constexpr net::PeerId kMusicNodeBase = 3;
constexpr int kSites = 3;
constexpr int kKeysPerClient = 4;
/// Sub-phases of the solo and the concurrent phase (~70 and ~1.2k sections,
/// ~0.35 s and ~0.6 s), short so that some fall between bursts of the
/// host's steal time; run.py reports from the quietest ones (see README.md).
constexpr int kSoloSubPhases = 16;
constexpr int kSubPhases = 40;
/// Concurrent clients.  Eight keep each musicd at about half a core on the
/// sizing host, where section latency is set by the event loops' millisecond
/// timers rather than by CPU speed; at 16 throughput also followed the
/// host's speed, and at 64 the fleet saturates its cores (see README.md).
constexpr int kClients = 8;
/// Frames kept for the codec replay.
constexpr size_t kWireSample = 20000;

struct FleetAgent {
  int cid = 0;
  int site = 0;
  std::vector<Key> keys;
  size_t next = 0;
  uint64_t seq = 0;
  std::unordered_map<Key, Value> last_put;
  ClientLog log;
};

struct Phase {
  sim::Simulation* sim = nullptr;
  bool timed = false;
  int done = 0;
};

/// Closed loop of `quota` put-then-get sections over the agent's own keys.
sim::Task<void> fleet_loop(Phase* ph, music::verify::CheckedClient* c,
                           FleetAgent* a, int quota) {
  sim::Simulation& s = *ph->sim;
  for (int i = 0; i < quota; ++i) {
    const Key& key = a->keys[a->next++ % a->keys.size()];
    Value v = make_value(a->cid, a->seq++);
    sim::Time t0 = s.now();
    SectionResult r = co_await critical_section(s, *c, a->site, key, false,
                                                true, v, ph->timed, a->log);
    sim::Time t1 = s.now();
    if (r.ok && !(r.read_found && r.read_value == v)) {
      a->log.note_error("key " + key + " did not read back its own put");
      r.ok = false;
    }
    ++a->log.attempted;
    if (r.ok) {
      ++a->log.ok_total;
      a->log.lat_us.push_back(t1 - t0);
      a->log.note_window_completion(t1);
      a->last_put[key] = v;
    } else {
      ++a->log.failed;
    }
  }
  ++ph->done;
}

/// Reads every own key once and compares with the last acknowledged put.
sim::Task<void> fleet_verify(Phase* ph, music::verify::CheckedClient* c,
                             FleetAgent* a) {
  sim::Simulation& s = *ph->sim;
  for (const Key& key : a->keys) {
    SectionResult r = co_await critical_section(s, *c, a->site, key, true,
                                                false, Value(), false, a->log);
    auto it = a->last_put.find(key);
    if (!r.ok) {
      a->log.note_error("verify read of " + key + " failed");
    } else if (it != a->last_put.end() &&
               !(r.read_found && r.read_value == it->second)) {
      a->log.note_error("key " + key + " lost its last acknowledged put");
    }
  }
  ++ph->done;
}

uint64_t reconnects(const net::TcpTransport& tcp) {
  uint64_t n = 0;
  for (const auto& p : tcp.peer_info()) n += p.reconnects;
  return n;
}

/// Drives the loop until `want` coroutines finished or `limit_us` passes.
bool pump(net::EventLoop& loop, sim::Simulation& s, const Phase& ph, int want,
          sim::Time limit_us) {
  while (ph.done < want && s.now() < limit_us) loop.poll_once(1);
  return ph.done >= want;
}

/// Per-phase summary written into the result object.
void emit_phase(JsonOut& j, const char* name,
                const std::vector<std::unique_ptr<FleetAgent>>& agents,
                size_t count, double wall_s, uint64_t steal) {
  std::vector<int64_t> lat;
  uint64_t attempted = 0, failed = 0, in_window = 0;
  double cs_per_s = 0.0;
  for (size_t i = 0; i < count; ++i) {
    const ClientLog& l = agents[i]->log;
    cs_per_s += l.cycle_rate(wall_s);
    lat.insert(lat.end(), l.lat_us.begin(), l.lat_us.end());
    attempted += l.attempted;
    failed += l.failed;
    in_window += l.completed_in_window;
  }
  j.begin_object();
  j.field("name", name);
  j.field("clients", static_cast<uint64_t>(count));
  j.field("wall_s", wall_s);
  j.field("steal_ticks", steal);
  j.field("cs_per_s", cs_per_s);
  j.field("attempted", attempted);
  j.field("failed", failed);
  j.field("completed_in_window", in_window);
  j.array("lat_us", lat);
  j.end_object();
}

void reset_logs(std::vector<std::unique_ptr<FleetAgent>>& agents) {
  for (auto& a : agents) {
    a->log.lat_us.clear();
    a->log.attempted = a->log.failed = a->log.completed_in_window = 0;
    a->log.first_done_us = a->log.last_done_us = -1;
  }
}

}  // namespace

int run_fleet(const FleetArgs& args) {
  sim::Simulation s(args.seed);
  net::EventLoop loop(s);
  net::TcpTransport tcp(loop);
  for (int site = 0; site < kSites; ++site) {
    tcp.route(kMusicNodeBase + site, "127.0.0.1",
              args.music_ports[static_cast<size_t>(site)]);
  }
  // Setup ends when all three routes finished their handshake.
  while (tcp.connected_peers() < kSites && s.now() < sim::sec(20)) {
    loop.poll_once(2);
  }
  if (tcp.connected_peers() < kSites) {
    std::fprintf(stderr, "fleet: only %d of %d routes connected\n",
                 tcp.connected_peers(), kSites);
    return 3;
  }
  std::printf("READY %lld\n", static_cast<long long>(s.now()));
  std::fflush(stdout);
  std::string cmd;
  if (!std::getline(std::cin, cmd) || cmd != "GO") return 0;

  TimedTransport timed(s, tcp, kWireSample);
  music::verify::EcfChecker checker(s);
  std::vector<std::unique_ptr<music::core::MusicClient>> clients;
  std::vector<std::unique_ptr<music::verify::CheckedClient>> checked;
  std::vector<std::unique_ptr<FleetAgent>> agents;
  for (int cid = 0; cid < kClients; ++cid) {
    int site = cid % kSites;
    std::vector<net::PeerId> peers{kMusicNodeBase + site};
    for (int k = 0; k < kSites; ++k) {
      if (k != site) peers.push_back(kMusicNodeBase + k);
    }
    clients.push_back(std::make_unique<music::core::MusicClient>(
        s, timed, peers, music::core::ClientConfig{}, site, 100 + cid));
    checked.push_back(
        std::make_unique<music::verify::CheckedClient>(*clients.back(), checker));
    auto a = std::make_unique<FleetAgent>();
    a->cid = cid;
    a->site = site;
    for (int k = 0; k < kKeysPerClient; ++k) {
      a->keys.push_back("f" + std::to_string(args.seed) + "-" +
                        std::to_string(cid) + "-" + std::to_string(k));
    }
    agents.push_back(std::move(a));
  }

  uint64_t reconnects0 = reconnects(tcp);
  double cpu0 = cpu_seconds();
  AllocTotals alloc0 = alloc_totals();
  uint64_t events0 = s.events_run();
  std::vector<std::string> errors;
  const int n = kClients;

  // Each phase is a fixed amount of work, so the fleet's memory and the
  // sample counts do not depend on how fast this host runs it.
  JsonOut j;
  j.begin_object();
  j.field("mode", "fleet");
  j.field("compiler", __VERSION__);
  j.field("build_type", PERFBENCH_BUILD_TYPE);
  j.key("phases").begin_array();
  auto phase = [&](const char* name, int count, int quota, bool traced) {
    timed.enabled = traced;
    Phase p;
    p.sim = &s;
    p.timed = traced;
    double t0 = host_now();
    uint64_t steal0 = host_steal_ticks();
    for (int i = 0; i < count; ++i) {
      sim::spawn(s, fleet_loop(&p, checked[static_cast<size_t>(i)].get(),
                               agents[static_cast<size_t>(i)].get(), quota));
    }
    if (!pump(loop, s, p, count, s.now() + sim::sec(120))) {
      errors.push_back(std::string(name) + " phase did not finish");
    }
    timed.enabled = false;
    if (name[0] != '\0') {
      emit_phase(j, name, agents, static_cast<size_t>(count), host_now() - t0,
                 host_steal_ticks() - steal0);
    }
    reset_logs(agents);
  };
  // Warm-up (not reported): every client writes each of its keys once.
  phase("", n, kKeysPerClient, false);
  // One client alone, then all clients concurrently, each in equal
  // back-to-back sub-phases so the orchestrator can see the host's steal and
  // the spread within the run.  A traced run alternates untraced and traced
  // concurrent sub-phases (timing decorator and per-op spans on); their
  // throughput ratio is the tracing overhead.
  for (int i = 0; i < kSoloSubPhases; ++i) {
    phase("solo", 1, std::max(2, args.solo_sections / kSoloSubPhases), false);
  }
  int quota = std::max(2, args.conc_sections / n / kSubPhases);
  for (int i = 0; i < kSubPhases; ++i) {
    bool traced = args.trace && i % 2 == 1;
    phase(args.trace && !traced ? "concurrent_untraced" : "concurrent", n,
          quota, traced);
  }
  j.end_array();

  // Output check: every key holds its last acknowledged put.
  Phase ph;
  ph.sim = &s;
  for (int i = 0; i < n; ++i) {
    sim::spawn(s, fleet_verify(&ph, checked[static_cast<size_t>(i)].get(),
                               agents[static_cast<size_t>(i)].get()));
  }
  if (!pump(loop, s, ph, n, s.now() + sim::sec(30))) {
    errors.push_back("verify pass did not finish");
  }

  double cpu1 = cpu_seconds();
  AllocTotals alloc1 = alloc_totals();
  uint64_t reconnects1 = reconnects(tcp);
  if (reconnects1 != reconnects0) errors.push_back("a route reconnected");
  if (tcp.connected_peers() != kSites) errors.push_back("a route is down");

  uint64_t ok_total = 0;
  std::array<std::vector<int64_t>, kNumOps> op_us;
  for (const auto& a : agents) {
    ok_total += a->log.ok_total;
    for (const auto& e : a->log.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
    for (int op = 0; op < kNumOps; ++op) {
      auto& dst = op_us[static_cast<size_t>(op)];
      const auto& src = a->log.op_us[static_cast<size_t>(op)];
      dst.insert(dst.end(), src.begin(), src.end());
    }
  }
  uint64_t client_attempts = 0, client_retries = 0;
  for (const auto& c : clients) {
    client_attempts += c->stats().attempts;
    client_retries += c->stats().retries;
  }

  j.field("ok_total", ok_total);
  j.field("loadgen_cpu_s", cpu1 - cpu0);
  j.field("events", s.events_run() - events0);
  j.field("allocs", alloc1.count - alloc0.count);
  j.field("alloc_bytes", alloc1.bytes - alloc0.bytes);
  j.field("reconnects", reconnects1 - reconnects0);
  j.field("client_attempts", client_attempts);
  j.field("client_retries", client_retries);
  j.field("violations", static_cast<uint64_t>(checker.violations().size()));
  j.field("violation_report", checker.ok() ? std::string() : checker.report());
  j.array("errors", errors);
  if (args.trace) {
    j.key("op_us").begin_object();
    for (int op = 0; op < kNumOps; ++op) {
      j.array(op_name(op), op_us[static_cast<size_t>(op)]);
    }
    j.end_object();
    j.field("invokes", timed.invokes());
    j.field("acquire_invokes", timed.by_op(wire::Request::Op::AcquireLock));
    j.field("acquire_ok", timed.acquire_ok());
    j.array("invoke_us", timed.invoke_us());
    WireStats ws = replay_wire(timed.sample());
    write_wire(j, ws);
  }
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
