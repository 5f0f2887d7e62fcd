// The simulated workloads: wan-queue and wan-contended (one MUSIC group on
// the lUsEu profile, classic scheduler) and cluster-wide (64 groups over 8
// sites under PDES).  Each world is built from public constructors, driven
// closed-loop through the Table I client API, and summarized from the
// public counters (sim::Simulation, sim::Network, MusicStats, ClientStats).
#include "sim_worlds.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc_count.h"
#include "clients.h"
#include "cluster/cluster.h"
#include "core/client.h"
#include "core/music.h"
#include "datastore/store.h"
#include "host_clock.h"
#include "lockstore/lockstore.h"
#include "net/sim_transport.h"
#include "obs/trace.h"
#include "sim/network.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "timed_transport.h"
#include "verify/oracle.h"
#include "wire_replay.h"

namespace perfbench {
namespace {

using music::sim::Duration;
using music::sim::Time;
namespace sim = music::sim;
namespace core = music::core;

/// Timeline of one world, in simulated time.
struct Timeline {
  Time warmup_end = 0;  // measurement window opens
  Time stop = 0;        // clients start no new load section
  Time drain_end = 0;   // in-flight sections have finished
  Duration solo = sim::sec(15);
  Time partition_at = 0;  // 0: no fault
  Duration partition_for = 0;
};

Timeline timeline_for(Workload w) {
  Timeline t;
  switch (w) {
    case Workload::kWanQueue:
      t.warmup_end = sim::sec(10);
      t.stop = sim::sec(20);
      t.drain_end = sim::sec(30);
      break;
    case Workload::kWanContended:
      t.warmup_end = sim::sec(5);
      t.stop = sim::sec(70);
      t.drain_end = sim::sec(90);
      t.partition_at = sim::sec(40);
      t.partition_for = sim::sec(10);
      break;
    case Workload::kClusterWide:
      t.warmup_end = sim::sec(2);
      t.stop = sim::sec(7);
      t.drain_end = sim::sec(9);
      break;
  }
  return t;
}

/// One logical client's state: its key plan, rng stream and log.
struct Agent {
  int cid = 0;
  int site = 0;
  sim::Rng rng;
  /// Shared keyspace (uniform draw) or null for own keys (round-robin).
  const std::vector<Key>* shared = nullptr;
  std::vector<Key> own;
  double read_frac = 0.0;
  uint64_t seq = 0;
  size_t next_own = 0;
  ClientLog log;
  /// Last acknowledged put per own key (output check).
  std::unordered_map<Key, Value> last_put;

  Agent(int c, int s, uint64_t seed) : cid(c), site(s), rng(seed) {}
};

/// Per-key in-flight bookkeeping that marks sections which overlapped
/// another section on the same key (classic worlds only: one thread).
struct Contention {
  struct Rec {
    std::array<music::obs::SpanId, kNumOps> spans{};
    bool contended = false;
    bool ok = false;
  };
  std::unordered_map<Key, std::vector<size_t>> active;
  std::vector<Rec> recs;

  size_t begin(const Key& key) {
    size_t id = recs.size();
    recs.emplace_back();
    auto& act = active[key];
    if (!act.empty()) {
      recs[id].contended = true;
      for (size_t other : act) recs[other].contended = true;
    }
    act.push_back(id);
    return id;
  }
  void end(const Key& key, size_t id, const SectionResult& r) {
    auto& act = active[key];
    act.erase(std::find(act.begin(), act.end(), id));
    recs[id].spans = r.spans;
    recs[id].ok = r.ok;
  }
};

/// State shared by one world's client coroutines.  Only `done` is written
/// from several PDES lanes.
struct Drive {
  sim::Simulation* sim = nullptr;
  Timeline tl;
  bool timed = false;
  Contention* contention = nullptr;  // traced classic worlds
  std::atomic<int> done{0};
};

template <typename C>
sim::Task<void> load_loop(Drive* d, C* c, Agent* a) {
  sim::Simulation& s = *d->sim;
  co_await sim::sleep_for(s, a->rng.uniform_int(0, sim::ms(100)));
  while (s.now() < d->tl.stop) {
    Key key = a->shared != nullptr
                  ? (*a->shared)[static_cast<size_t>(a->rng.uniform_int(
                        0, static_cast<int64_t>(a->shared->size()) - 1))]
                  : a->own[a->next_own++ % a->own.size()];
    bool read = a->read_frac > 0.0 && a->rng.chance(a->read_frac);
    Value v = make_value(a->cid, a->seq++);
    Time t0 = s.now();
    bool in_window = t0 >= d->tl.warmup_end;
    size_t cid = d->contention != nullptr ? d->contention->begin(key) : 0;
    SectionResult r = co_await critical_section(s, *c, a->site, key, read,
                                                false, v, d->timed, a->log);
    if (d->contention != nullptr) d->contention->end(key, cid, r);
    Time t1 = s.now();
    if (in_window) {
      ++a->log.attempted;
      if (r.ok) {
        a->log.lat_us.push_back(t1 - t0);
      } else {
        ++a->log.failed;
      }
    }
    if (r.ok) {
      ++a->log.ok_total;
      a->log.note_completion(t1);
      if (t1 >= d->tl.warmup_end && t1 < d->tl.stop) {
        a->log.note_window_completion(t1);
      }
      if (!read && a->shared == nullptr) a->last_put[key] = v;
    }
  }
  d->done.fetch_add(1, std::memory_order_relaxed);
}

/// Reads back every own key once and compares with the last acked put.
template <typename C>
sim::Task<void> verify_loop(Drive* d, C* c, Agent* a) {
  sim::Simulation& s = *d->sim;
  for (const Key& key : a->own) {
    SectionResult r = co_await critical_section(s, *c, a->site, key, true,
                                                false, Value(), false, a->log);
    if (!r.ok) {
      a->log.note_error("verify read of " + key + " failed");
      continue;
    }
    ++a->log.ok_total;
    auto it = a->last_put.find(key);
    if (it == a->last_put.end()) {
      if (r.read_found) a->log.note_error("unwritten key " + key + " has a value");
    } else if (!r.read_found || !(r.read_value == it->second)) {
      a->log.note_error("key " + key + " lost its last acknowledged put");
    }
  }
  d->done.fetch_add(1, std::memory_order_relaxed);
}

/// One client alone: sequential put sections on fresh keys.
template <typename C>
sim::Task<void> solo_loop(Drive* d, C* c, Agent* a, Time until,
                          std::vector<int64_t>* out) {
  sim::Simulation& s = *d->sim;
  while (s.now() < until) {
    Key key = a->own[a->next_own++ % a->own.size()];
    Time t0 = s.now();
    SectionResult r = co_await critical_section(
        s, *c, a->site, key, false, false, make_value(a->cid, a->seq++), false,
        a->log);
    if (r.ok) {
      ++a->log.ok_total;
      out->push_back(s.now() - t0);
    } else {
      a->log.note_error("solo section on " + key + " failed");
    }
  }
  d->done.fetch_add(1, std::memory_order_relaxed);
}

/// Runs until `want` coroutines reported done or `limit` passes.
bool run_until_done(sim::Simulation& s, Drive& d, int want, Time limit) {
  while (d.done.load(std::memory_order_relaxed) < want && s.now() < limit) {
    s.run_for(sim::ms(500));
  }
  return d.done.load(std::memory_order_relaxed) >= want;
}

void add_music(MusicTotals& t, const core::MusicStats& m) {
  t.acquire_attempts += m.acquire_attempts;
  t.acquire_granted += m.acquire_granted;
  t.synchronizations += m.synchronizations;
  t.forced_releases += m.forced_releases;
  t.rejected_not_holder += m.rejected_not_holder;
}

void add_client(ClientTotals& t, const core::ClientStats& c) {
  t.attempts += c.attempts;
  t.retries += c.retries;
}

void collect_net(const sim::Network& net, WorldOut& o) {
  using K = sim::MsgKind;
  o.paxos_msgs = net.messages_sent(K::PaxosPrepare) +
                 net.messages_sent(K::PaxosAccept) +
                 net.messages_sent(K::PaxosCommit);
  o.quorum_msgs = net.messages_sent(K::StoreRead) +
                  net.messages_sent(K::StoreWrite) +
                  net.messages_sent(K::StoreAck) +
                  net.messages_sent(K::StoreRepair);
  o.wan_msgs = net.wan_messages_sent();
  o.net_bytes = net.bytes_sent();
}

void collect_logs(const std::vector<std::unique_ptr<Agent>>& agents,
                  const Timeline& tl, WorldOut& o) {
  double window_s = static_cast<double>(tl.stop - tl.warmup_end) / 1e6;
  for (const auto& a : agents) {
    const ClientLog& l = a->log;
    o.cs_per_s += l.cycle_rate(window_s);
    o.lat_us.insert(o.lat_us.end(), l.lat_us.begin(), l.lat_us.end());
    o.attempted += l.attempted;
    o.failed += l.failed;
    o.ok_total += l.ok_total;
    if (o.rate.size() < l.rate.size()) o.rate.resize(l.rate.size(), 0);
    for (size_t i = 0; i < l.rate.size(); ++i) o.rate[i] += l.rate[i];
    for (int op = 0; op < kNumOps; ++op) {
      auto& dst = o.op_us[static_cast<size_t>(op)];
      const auto& src = l.op_us[static_cast<size_t>(op)];
      dst.insert(dst.end(), src.begin(), src.end());
    }
    for (const auto& e : l.errors) {
      if (o.errors.size() < 8) o.errors.push_back(e);
    }
    o.wire_sample.requests.insert(o.wire_sample.requests.end(),
                                  l.wire.requests.begin(),
                                  l.wire.requests.end());
    o.wire_sample.responses.insert(o.wire_sample.responses.end(),
                                   l.wire.responses.begin(),
                                   l.wire.responses.end());
  }
}

/// Self time per span name: duration minus the union of child intervals.
void fold_spans(const music::obs::Tracer& tracer, WorldOut& o) {
  const auto& spans = tracer.spans();
  std::vector<std::vector<size_t>> children(spans.size() + 1);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0 && spans[i].parent <= spans.size()) {
      children[spans[i].parent].push_back(i);
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const music::obs::Span& sp = spans[i];
    if (!sp.finished()) continue;
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t c : children[sp.id]) {
      const music::obs::Span& ch = spans[c];
      int64_t b = std::max(ch.begin_us, sp.begin_us);
      int64_t e = std::min(ch.finished() ? ch.end_us : sp.end_us, sp.end_us);
      if (e > b) iv.emplace_back(b, e);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_b = 0, cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    auto& agg = o.span_self[sp.name];
    agg.first += sp.duration_us() - covered;
    agg.second += 1;
  }
  o.dropped_spans = tracer.dropped_spans();
}

void collect_rtts(const music::obs::Tracer& tracer, const Contention& c,
                  WorldOut& o) {
  for (const auto& rec : c.recs) {
    if (rec.contended || !rec.ok) continue;
    ++o.uncontended_sections;
    for (int op = 0; op < kNumOps; ++op) {
      music::obs::SpanId id = rec.spans[static_cast<size_t>(op)];
      if (id == 0) continue;
      const music::obs::Span* sp = tracer.find(id);
      if (sp != nullptr && sp->finished()) {
        o.rtts[static_cast<size_t>(op)].push_back(
            static_cast<int64_t>(sp->rtts));
      }
    }
  }
}

// ---- wan-queue / wan-contended --------------------------------------------

constexpr int kWanSites = 3;
constexpr int kWanClientsPerSite = 32;
constexpr int kWanKeys = 512;
/// Request/response pairs kept for the codec replay (traced runs).
constexpr size_t kWanWireSample = 6000;

WorldOut run_wan(Workload w, uint64_t seed, bool trace, bool setup_only) {
  WorldOut o;
  Timeline tl = timeline_for(w);
  bool faulted = tl.partition_at > 0;

  double t_setup = host_now();
  sim::Simulation s(seed);
  sim::NetworkConfig nc;
  nc.profile = sim::LatencyProfile::profile_luseu();
  sim::Network net(s, nc);
  music::ds::StoreConfig sc;
  sc.expected_keys = 4096;
  music::ds::StoreCluster store(s, net, sc, std::vector<int>{0, 1, 2});
  music::ls::LockStore locks(store);
  core::MusicConfig mc;
  mc.holder_timeout = sim::sec(8);
  mc.fd_interval = sim::sec(2);
  std::vector<std::unique_ptr<core::MusicReplica>> reps;
  // Every client reaches the replicas through one SimTransport behind the
  // timing decorator, which samples the requests and responses that cross
  // the client seam (traced runs only; untraced it only passes through).
  music::net::SimTransport transport(s, net);
  for (int site = 0; site < kWanSites; ++site) {
    reps.push_back(std::make_unique<core::MusicReplica>(store, locks, mc, site));
    reps.back()->start_failure_detector();
    core::bind_replica(transport, *reps.back());
  }
  TimedTransport timed(s, transport, kWanWireSample);
  music::verify::EcfChecker checker(s);
  // Forced releases under faults can grant from a stale local view; ECF
  // makes no promises to such holders (strict when fault-free).
  if (faulted) checker.set_lenient_stale_grants(true);

  std::vector<Key> keys;
  for (int k = 0; k < kWanKeys; ++k) keys.push_back("k" + std::to_string(k));
  const int n = kWanSites * kWanClientsPerSite;
  std::vector<std::unique_ptr<core::MusicClient>> clients;
  std::vector<std::unique_ptr<music::verify::CheckedClient>> checked;
  std::vector<std::unique_ptr<Agent>> agents;
  for (int cid = 0; cid <= n; ++cid) {  // cid n: the solo client
    int site = cid == n ? 0 : cid % kWanSites;
    std::vector<music::net::PeerId> prefs{reps[static_cast<size_t>(site)]->node()};
    for (int j = 0; j < kWanSites; ++j) {
      if (j != site) prefs.push_back(reps[static_cast<size_t>(j)]->node());
    }
    music::net::PeerId node = net.add_node(site);
    clients.push_back(std::make_unique<core::MusicClient>(
        s, timed, prefs, core::ClientConfig{}, site, node));
    checked.push_back(
        std::make_unique<music::verify::CheckedClient>(*clients.back(), checker));
    agents.push_back(std::make_unique<Agent>(
        cid, site, seed * 1000003ull + static_cast<uint64_t>(cid)));
    Agent& a = *agents.back();
    if (cid == n) {
      for (int k = 0; k < 64; ++k) a.own.push_back("solo" + std::to_string(k));
    } else {
      a.shared = &keys;
      a.read_frac = 0.2;
    }
  }
  music::obs::Tracer tracer;
  Contention contention;
  o.setup_s = host_now() - t_setup;
  if (setup_only) return o;

  Drive d;
  d.sim = &s;
  d.tl = tl;
  d.timed = trace;
  if (trace) {
    s.set_tracer(&tracer);
    d.contention = &contention;
    timed.enabled = true;
  }
  if (faulted) {
    s.schedule_at(tl.partition_at, [&net, &s, tl] {
      sim::PartitionId id = net.partition_sites({2}, {0, 1});
      s.schedule(tl.partition_for, [&net, id] { net.heal_partition(id); });
    });
  }

  AllocTotals a0 = alloc_totals();
  double t_run = host_now();
  double cpu_run = cpu_seconds();
  for (int cid = 0; cid < n; ++cid) {
    sim::spawn(s, load_loop(&d, checked[static_cast<size_t>(cid)].get(),
                            agents[static_cast<size_t>(cid)].get()));
  }
  s.run_until(tl.drain_end);
  if (!run_until_done(s, d, n, tl.drain_end + sim::sec(60))) {
    o.errors.push_back("load sections still in flight after the drain");
  }
  d.done.store(0);
  d.timed = false;
  s.set_tracer(nullptr);
  timed.enabled = false;
  Time solo_end = s.now() + tl.solo;
  sim::spawn(s, solo_loop(&d, checked.back().get(), agents.back().get(),
                          solo_end, &o.solo_us));
  if (!run_until_done(s, d, 1, solo_end + sim::sec(30))) {
    o.errors.push_back("solo client did not finish");
  }
  o.run_host_s = host_now() - t_run;
  o.run_cpu_s = cpu_seconds() - cpu_run;
  AllocTotals a1 = alloc_totals();

  o.allocs = a1.count - a0.count;
  o.alloc_bytes = a1.bytes - a0.bytes;
  o.events = s.events_run();
  o.sim_s = static_cast<double>(s.now()) / 1e6;
  o.warmup_s = static_cast<double>(tl.warmup_end) / 1e6;
  o.stop_s = static_cast<double>(tl.stop) / 1e6;
  if (faulted) {
    o.fault_s = static_cast<double>(tl.partition_at) / 1e6;
    o.heal_s = static_cast<double>(tl.partition_at + tl.partition_for) / 1e6;
  }
  for (const auto& r : reps) add_music(o.music, r->stats());
  for (const auto& c : clients) add_client(o.client, c->stats());
  collect_net(net, o);
  collect_logs(agents, tl, o);
  o.violations = checker.violations().size();
  if (!checker.ok()) o.violation_report = checker.report();
  if (trace) {
    fold_spans(tracer, o);
    collect_rtts(tracer, contention, o);
    o.wire_sample = timed.sample();
    o.invoke_us = timed.invoke_us();
  }
  return o;
}

// ---- cluster-wide ----------------------------------------------------------

constexpr int kClusterSites = 8;
constexpr int kClusterGroups = 64;
constexpr int kClusterClients = 1024;
constexpr int kKeysPerClient = 4;

/// Keys whose group has a replica homed at `site`, probed in order from
/// `salt`: every client's shared group client stays on its own site lane.
std::vector<Key> keys_homed_at(music::cluster::Cluster& cl, int site,
                               const std::string& prefix, int want) {
  auto map = cl.snapshot();
  std::vector<Key> out;
  for (int i = 0; static_cast<int>(out.size()) < want; ++i) {
    Key key = prefix + std::to_string(i);
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

WorldOut run_cluster(uint64_t seed, bool trace, size_t workers,
                     int nclients, bool setup_only) {
  WorldOut o;
  Timeline tl = timeline_for(Workload::kClusterWide);

  double t_setup = host_now();
  sim::Simulation s(seed);
  sim::NetworkConfig nc;
  nc.profile = sim::LatencyProfile::uniform(kClusterSites, 40.0, 0.2);
  sim::Simulation::PdesOptions po;
  po.sites = nc.profile.num_sites();
  po.workers = workers;
  po.lookahead = sim::Network::conservative_lookahead(nc);
  s.enable_pdes(po);
  sim::Network net(s, nc);
  music::cluster::ClusterConfig cc;
  cc.shards = kClusterGroups;
  cc.groups = 0;  // one group per shard
  cc.sites = kClusterSites;
  cc.music.holder_timeout = sim::sec(8);
  cc.music.fd_interval = sim::sec(2);
  music::cluster::Cluster cl(s, net, cc);
  music::verify::EcfChecker checker(s);

  std::vector<std::unique_ptr<music::cluster::Client>> clients;
  std::vector<std::unique_ptr<Agent>> agents;
  for (int cid = 0; cid <= nclients; ++cid) {  // last: solo client
    bool solo = cid == nclients;
    int site = solo ? 0 : cid % kClusterSites;
    clients.push_back(
        std::make_unique<music::cluster::Client>(cl, site, &checker));
    agents.push_back(std::make_unique<Agent>(
        cid, site, seed * 1000003ull + static_cast<uint64_t>(cid)));
    Agent& a = *agents.back();
    a.own = keys_homed_at(cl, site, (solo ? "solo-" : "c" + std::to_string(cid) + "-"),
                          solo ? 64 : kKeysPerClient);
    // cluster::Cluster builds its group clients with no transport seam, so
    // the codec replay samples this benchmark's own Table I calls instead.
    if (trace && cid % 16 == 0) a.log.wire.budget = 64;
  }
  o.setup_s = host_now() - t_setup;
  if (setup_only) return o;

  Drive d;
  d.sim = &s;
  d.tl = tl;
  d.timed = trace;

  AllocTotals a0 = alloc_totals();
  double t_run = host_now();
  double cpu_run = cpu_seconds();
  for (int cid = 0; cid < nclients; ++cid) {
    sim::spawn(s, load_loop(&d, clients[static_cast<size_t>(cid)].get(),
                            agents[static_cast<size_t>(cid)].get()));
  }
  s.run_until(tl.drain_end);
  if (!run_until_done(s, d, nclients, tl.drain_end + sim::sec(60))) {
    o.errors.push_back("load sections still in flight after the drain");
  }
  d.done.store(0);
  d.timed = false;
  for (int cid = 0; cid < nclients; ++cid) {
    sim::spawn(s, verify_loop(&d, clients[static_cast<size_t>(cid)].get(),
                              agents[static_cast<size_t>(cid)].get()));
  }
  if (!run_until_done(s, d, nclients, s.now() + sim::sec(60))) {
    o.errors.push_back("verify pass did not finish");
  }
  d.done.store(0);
  Time solo_end = s.now() + tl.solo;
  sim::spawn(s, solo_loop(&d, clients.back().get(), agents.back().get(),
                          solo_end, &o.solo_us));
  if (!run_until_done(s, d, 1, solo_end + sim::sec(30))) {
    o.errors.push_back("solo client did not finish");
  }
  o.run_host_s = host_now() - t_run;
  o.run_cpu_s = cpu_seconds() - cpu_run;
  AllocTotals a1 = alloc_totals();

  o.allocs = a1.count - a0.count;
  o.alloc_bytes = a1.bytes - a0.bytes;
  o.events = s.events_run();
  o.windows = s.pdes_windows_run();
  o.sim_s = static_cast<double>(s.now()) / 1e6;
  o.warmup_s = static_cast<double>(tl.warmup_end) / 1e6;
  o.stop_s = static_cast<double>(tl.stop) / 1e6;
  for (int g = 0; g < cl.num_groups(); ++g) {
    music::cluster::Group& grp = cl.group(g);
    for (const auto& r : grp.replicas) add_music(o.music, r->stats());
    for (const auto& c : grp.clients) add_client(o.client, c->stats());
  }
  collect_net(net, o);
  collect_logs(agents, tl, o);
  o.violations = checker.violations().size();
  if (!checker.ok()) o.violation_report = checker.report();
  return o;
}

}  // namespace

WorldOut run_world(Workload w, uint64_t seed, bool trace, size_t workers,
                   int clients, bool setup_only) {
  WorldOut o = w == Workload::kClusterWide
                   ? run_cluster(seed, trace, workers,
                                 clients > 0 ? clients : kClusterClients,
                                 setup_only)
                   : run_wan(w, seed, trace, setup_only);
  o.seed = seed;
  if (trace) o.wire = replay_wire(o.wire_sample);
  return o;
}

}  // namespace perfbench
