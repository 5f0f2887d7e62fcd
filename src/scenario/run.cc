#include "scenario/run.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <set>
#include <utility>

#include "fault/fault.h"
#include "fault/nemesis.h"
#include "obs/metrics.h"
#include "par/par.h"
#include "sim/simulation.h"
#include "verify/oracle.h"
#include "wire/codec.h"
#include "workload/driver.h"
#include "workload/zipfian.h"
#include "world/world.h"

namespace music::scn {
namespace {

// ---- Shared cell plumbing --------------------------------------------------

/// Key chooser shared by all protocol workloads: same keying, same key
/// names, so cross-protocol cells of one sweep contend identically.
struct KeyPick {
  Keying keying;
  uint64_t keys;
  wl::Zipfian zipf;

  KeyPick(Keying k, uint64_t n, double theta)
      : keying(k), keys(n), zipf(n, theta) {}

  Key next(sim::Rng& rng) {
    uint64_t idx = 0;
    switch (keying) {
      case Keying::Uniform: idx = rng.next_u64() % keys; break;
      case Keying::Zipfian: idx = zipf.next(rng); break;
      case Keying::Single: idx = 0; break;
    }
    // Built stepwise (GCC 12 -Werror=restrict, see ds::Cell note).
    std::string k = "k";
    k += std::to_string(idx);
    return k;
  }
};

/// Unique-ish write payload padded to the spec's value size.  Values are
/// distinct per (client, sequence) so the ECF oracle's Latest-State checks
/// compare real candidates, not accidental duplicates.
Value make_value(int cid, uint64_t seq, size_t value_size) {
  std::string v = "v";
  v += std::to_string(cid);
  v += ".";
  v += std::to_string(seq);
  if (v.size() < value_size) v.resize(value_size, 'x');
  return Value(v);
}

/// The arrival think-time hook for wl::DriverConfig (empty for Closed).
std::function<sim::Duration(sim::Rng&, sim::Time)> think_fn(Arrival a) {
  switch (a.kind) {
    case ArrivalKind::Closed:
      return {};
    case ArrivalKind::Poisson: {
      double mean_us = 1e6 / a.rate;
      return [mean_us](sim::Rng& rng, sim::Time) {
        return static_cast<sim::Duration>(rng.exponential(mean_us));
      };
    }
    case ArrivalKind::Diurnal: {
      double rate = a.rate;
      double low = a.low;
      double period = static_cast<double>(a.period);
      return [rate, low, period](sim::Rng& rng, sim::Time now) {
        // Peak at mid-period, trough (low x peak) at the period boundary.
        double phase = 2.0 * 3.14159265358979323846 *
                       (static_cast<double>(now) / period);
        double frac = low + (1.0 - low) * 0.5 * (1.0 - std::cos(phase));
        double r = rate * frac;
        // At a zero trough the mean gap is unbounded; clamp to one period
        // so clients re-check the (time-varying) rate at least once a cycle.
        double mean_us = r > 1e-12 ? 1e6 / r : period;
        if (mean_us > period) mean_us = period;
        auto gap = static_cast<sim::Duration>(rng.exponential(mean_us));
        if (gap > static_cast<sim::Duration>(period)) {
          gap = static_cast<sim::Duration>(period);
        }
        return gap;
      };
    }
  }
  return {};
}

/// Per-site client counts for a cell.
std::vector<int> cell_placement(const Cell& cell) {
  return place_clients(cell.clients(), cell.point.workload.placement);
}

/// Per-site max wire versions for a cell ("" = the current binary's full
/// range everywhere).  The versions axis is already grammar-validated
/// (V:V:V, each 1..9).
std::array<uint8_t, 3> cell_versions(const Cell& cell) {
  std::array<uint8_t, 3> v{wire::kWireVersionMax, wire::kWireVersionMax,
                           wire::kWireVersionMax};
  const std::string& s = cell.versions();
  if (s.size() == 5) {
    v = {static_cast<uint8_t>(s[0] - '0'), static_cast<uint8_t>(s[2] - '0'),
         static_cast<uint8_t>(s[4] - '0')};
  }
  return v;
}

/// Per-logical-client rng + value sequence, used in place of the shared
/// workload stream when a cell runs under PDES: run_once executes on
/// concurrent site lanes there, so a shared stream would race — and even a
/// locked one would draw in a worker-count-dependent order.  Per-cid
/// streams keep the draw sequence (and so the cell checksum) invariant at
/// any worker count.  Classic cells keep the original shared stream so
/// their goldens stay bit-identical.
struct ClientStream {
  sim::Rng rng;
  uint64_t seq = 0;
};

std::vector<ClientStream> make_streams(int n, uint64_t seed) {
  std::vector<ClientStream> v;
  v.reserve(static_cast<size_t>(n));
  sim::Rng base(seed);
  for (int i = 0; i < n; ++i) {
    v.push_back(ClientStream{base.fork(static_cast<uint64_t>(i)), 0});
  }
  return v;
}

// ---- Protocol workloads ----------------------------------------------------

/// MUSIC/MSCP cell op: one critical section around a single criticalGet
/// (read) or criticalPut (write) on a picked key, every transition reported
/// to the armed oracle.  `Client` is verify::CheckedClient (one group) or
/// cluster::Client (sharded: shard routing, the WrongShard retry discipline
/// and the oracle instrumentation live in the client), so the section body
/// is protocol-identical.
template <typename Client>
class MixWorkload : public wl::Workload {
 public:
  /// `pdes_clients` > 0 switches to that many per-cid streams (PDES cells).
  MixWorkload(std::vector<Client*> clients, double read_frac, KeyPick pick,
              size_t value_size, uint64_t seed, int pdes_clients = 0)
      : clients_(std::move(clients)),
        read_frac_(read_frac),
        pick_(std::move(pick)),
        value_size_(value_size),
        rng_(seed),
        streams_(make_streams(pdes_clients, seed)) {}

  sim::Task<bool> run_once(int cid) override {
    Client& c = *clients_[static_cast<size_t>(cid) % clients_.size()];
    sim::Rng& rng =
        streams_.empty() ? rng_
                         : streams_[static_cast<size_t>(cid) % streams_.size()].rng;
    uint64_t& seq =
        streams_.empty() ? seq_
                         : streams_[static_cast<size_t>(cid) % streams_.size()].seq;
    Key key = pick_.next(rng);
    bool read = rng.chance(read_frac_);
    auto ref = co_await c.create_lock_ref(key);
    if (!ref.ok()) co_return false;
    auto acq = co_await c.acquire_lock_blocking(key, ref.value());
    if (!acq.ok()) {
      co_await c.remove_lock_ref(key, ref.value());
      co_return false;
    }
    bool ok;
    if (read) {
      auto g = co_await c.critical_get(key, ref.value());
      // NotFound is a legitimate read of a never-written key.
      ok = g.ok() || g.status() == OpStatus::NotFound;
    } else {
      auto put = co_await c.critical_put(key, ref.value(),
                                         make_value(cid, seq++, value_size_));
      ok = put.ok();
    }
    co_await c.release_lock(key, ref.value());
    co_return ok;
  }

 private:
  std::vector<Client*> clients_;
  double read_frac_;
  KeyPick pick_;
  size_t value_size_;
  sim::Rng rng_;
  uint64_t seq_ = 0;
  std::vector<ClientStream> streams_;
};

/// Zookeeper cell op: one sequentially-consistent getData / setData.
class ZabMixWorkload : public wl::Workload {
 public:
  ZabMixWorkload(std::vector<zab::ZkClient*> clients, double read_frac,
                 KeyPick pick, size_t value_size, uint64_t seed)
      : clients_(std::move(clients)),
        read_frac_(read_frac),
        pick_(std::move(pick)),
        value_size_(value_size),
        rng_(seed) {}

  sim::Task<bool> run_once(int cid) override {
    auto* c = clients_[static_cast<size_t>(cid) % clients_.size()];
    Key key = pick_.next(rng_);
    if (rng_.chance(read_frac_)) {
      auto g = co_await c->get_data(key);
      co_return g.ok() || g.status() == OpStatus::NotFound;
    }
    co_return(co_await c->set_data(key,
                                   make_value(cid, seq_++, value_size_)))
        .ok();
  }

 private:
  std::vector<zab::ZkClient*> clients_;
  double read_frac_;
  KeyPick pick_;
  size_t value_size_;
  sim::Rng rng_;
  uint64_t seq_ = 0;
};

/// CockroachDB-substitute cell op: a leader read, or one single-update
/// §X-B3 critical section (lock txn + update/unlock txn).
class CdbMixWorkload : public wl::Workload {
 public:
  CdbMixWorkload(std::vector<raftkv::TxClient*> clients, double read_frac,
                 KeyPick pick, size_t value_size, uint64_t seed)
      : clients_(std::move(clients)),
        read_frac_(read_frac),
        pick_(std::move(pick)),
        value_size_(value_size),
        rng_(seed) {}

  sim::Task<bool> run_once(int cid) override {
    auto* c = clients_[static_cast<size_t>(cid) % clients_.size()];
    Key key = pick_.next(rng_);
    if (rng_.chance(read_frac_)) {
      auto g = co_await c->select(key);
      co_return g.ok() || g.status() == OpStatus::NotFound;
    }
    std::string lock_key = "l";
    lock_key += key;
    co_return(co_await c->critical_section(
                  lock_key, key, make_value(cid, seq_++, value_size_), 1))
        .ok();
  }

 private:
  std::vector<raftkv::TxClient*> clients_;
  double read_frac_;
  KeyPick pick_;
  size_t value_size_;
  sim::Rng rng_;
  uint64_t seq_ = 0;
};

// ---- Cell execution --------------------------------------------------------

KeyPick cell_keypick(const Cell& cell) {
  const WorkloadBlock& w = cell.point.workload;
  return KeyPick(w.keying, w.keys, w.zipf_theta);
}

wl::DriverConfig cell_driver(const Cell& cell) {
  wl::DriverConfig cfg;
  cfg.clients = cell.clients();
  cfg.warmup = cell.point.workload.warmup;
  cfg.measure = cell.point.workload.measure;
  cfg.drain = sim::sec(10);
  cfg.think = think_fn(cell.point.workload.arrival);
  return cfg;
}

void collect_net(sim::Simulation& sim, sim::Network& net, CellOutcome* out) {
  obs::MetricsRegistry reg;
  net.export_metrics(reg);
  out->msgs = reg.counter("net.msgs.sent").value;
  out->wan_msgs = reg.counter("net.msgs.wan").value;
  out->bytes = reg.counter("net.bytes.sent").value;
  out->events = sim.events_run();
}

/// The fleet's negotiated wire-version floor given per-site max versions:
/// the lowest version any site pair pins, or 0 if some pair shares none.
int fleet_floor(const std::array<uint8_t, 3>& site_versions) {
  int floor = 255;
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = i + 1; j < 3; ++j) {
      auto v = wire::negotiate(wire::kWireVersionMin, site_versions[i],
                               wire::kWireVersionMin, site_versions[j]);
      if (!v.has_value()) return 0;
      floor = std::min(floor, static_cast<int>(*v));
    }
  }
  return floor;
}

/// Arms the nemesis with the cell's fault schedule (already validated at
/// spec level; a parse failure here is an internal error).
bool arm_faults(const Cell& cell, fault::Nemesis& nemesis, CellOutcome* out) {
  if (cell.point.faults.empty()) return true;
  std::string err;
  auto sched = fault::Schedule::parse(cell.point.faults, &err);
  if (!sched.has_value()) {
    out->error = "internal: fault schedule re-parse failed: " + err;
    return false;
  }
  nemesis.arm(*sched);
  return true;
}

/// The world options a cell's spec names.  MUSIC/MSCP cells run the
/// production failure detector with an 8 s holder timeout, so abandoned
/// sections recover under faults.
world::Options cell_options(const Cell& cell, core::PutMode mode,
                            size_t par_sites) {
  world::Options o;
  o.seed = cell.seed;
  o.net.profile = sim::LatencyProfile::by_name(cell.profile());
  o.pdes_workers = par_sites;
  o.store_nodes = cell.point.topology.store_nodes;
  o.store.expected_keys = 4096;
  o.music.put_mode = mode;
  o.music.holder_timeout = sim::sec(8);
  o.music.fd_interval = sim::sec(2);
  o.failure_detector = true;
  o.holder_site = cell.point.topology.holder_site;
  return o;
}

/// Runs the MUSIC/MSCP mix on a built world (one group or sharded) whose
/// `clients` report to `checker`: the oracle also observes every replica,
/// the cell's faults are armed on the world's crash hooks, and a site
/// restart onto a new binary records its max wire version so the fleet's
/// negotiated floor tracks the upgrade.
template <typename World, typename Client>
CellOutcome run_mix_cell(const Cell& cell, World& w,
                         verify::EcfChecker& checker,
                         std::vector<Client*> clients, size_t par_sites) {
  CellOutcome out;
  out.label = cell.label();
  w.observe(&checker);
  // Forced releases under faults can grant from a stale local view; ECF
  // makes no promises to such holders (keep strict when fault-free).
  if (!cell.point.faults.empty()) checker.set_lenient_stale_grants(true);

  std::array<uint8_t, 3> site_versions = cell_versions(cell);
  fault::NemesisHooks hooks = w.nemesis_hooks();
  hooks.restart_site = [bounce = hooks.restart_site, &site_versions](
                           int site, bool down, bool amnesia, int version) {
    bounce(site, down, amnesia, version);
    if (!down && version > 0) {
      site_versions[static_cast<size_t>(site)] = static_cast<uint8_t>(version);
    }
  };
  fault::Nemesis nemesis(w.sim, w.net, std::move(hooks));
  if (!arm_faults(cell, nemesis, &out)) return out;

  auto mix = std::make_shared<MixWorkload<Client>>(
      std::move(clients), cell.mix(), cell_keypick(cell),
      cell.point.workload.value_size, cell.seed ^ 0x5CE7A810ull,
      par_sites > 0 ? cell.clients() : 0);
  out.run = wl::run_closed_loop(w.sim, mix, cell_driver(cell));
  nemesis.heal_all();  // close any open-ended faults before inspection

  collect_net(w.sim, w.net, &out);
  out.fleet_version = fleet_floor(site_versions);
  out.violations = checker.violations().size();
  out.ok = checker.ok();
  if (!out.ok) out.error = checker.report();
  return out;
}

CellOutcome run_music_cell(const Cell& cell, core::PutMode mode,
                           size_t par_sites) {
  world::Options opt = cell_options(cell, mode, par_sites);
  opt.client_sites = world::grouped_sites(cell_placement(cell));
  world::MusicWorld w(std::move(opt));
  verify::EcfChecker checker(w.sim);
  std::vector<verify::CheckedClient> checked;
  checked.reserve(w.clients.size());
  std::vector<verify::CheckedClient*> clients;
  for (auto& c : w.clients) {
    clients.push_back(&checked.emplace_back(*c, checker));
  }
  return run_mix_cell(cell, w, checker, std::move(clients), par_sites);
}

CellOutcome run_cluster_cell(const Cell& cell, core::PutMode mode,
                             size_t par_sites) {
  world::ClusterWorld w(cell_options(cell, mode, par_sites), cell.shards());
  verify::EcfChecker checker(w.sim);
  // One shard-aware client per logical client (cheap: they fan into the
  // cluster's shared per-site core clients).
  std::vector<cluster::Client*> clients;
  for (int site : world::grouped_sites(cell_placement(cell))) {
    clients.push_back(&w.add_client(site, &checker));
  }
  return run_mix_cell(cell, w, checker, std::move(clients), par_sites);
}

/// A zab/raftkv cell: the baseline world, the cell's network faults, and
/// its mix.  No MUSIC ops, so the ECF oracle is vacuous for these cells.
template <typename World, typename Workload>
CellOutcome run_baseline_cell(const Cell& cell) {
  CellOutcome out;
  out.label = cell.label();
  world::Options opt;
  opt.seed = cell.seed;
  opt.net.profile = sim::LatencyProfile::by_name(cell.profile());
  opt.client_sites = world::grouped_sites(cell_placement(cell));
  World w(std::move(opt));

  fault::Nemesis nemesis(w.sim, w.net, {});
  if (!arm_faults(cell, nemesis, &out)) return out;

  auto mix = std::make_shared<Workload>(
      w.client_ptrs(), cell.mix(), cell_keypick(cell),
      cell.point.workload.value_size, cell.seed ^ 0x5CE7A810ull);
  out.run = wl::run_closed_loop(w.sim, mix, cell_driver(cell));
  nemesis.heal_all();

  collect_net(w.sim, w.net, &out);
  out.ok = true;
  return out;
}

}  // namespace

uint64_t CellOutcome::checksum() const {
  uint64_t h = 14695981039346656037ull;
  auto mix_byte = [&h](uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  auto mix = [&mix_byte](uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<uint8_t>(v >> (i * 8)));
  };
  for (char c : label) mix_byte(static_cast<uint8_t>(c));
  mix(run.completed);
  mix(run.failed);
  mix(static_cast<uint64_t>(run.measured));
  mix(run.latency.count());
  // Mean is sum/count of integer microsecond samples: deterministic.
  mix(static_cast<uint64_t>(std::llround(run.latency.mean_ms() * 1000.0)));
  mix(events);
  mix(msgs);
  mix(wan_msgs);
  mix(bytes);
  mix(violations);
  mix(ok ? 1 : 0);
  return h;
}

std::string validate(const ScenarioSpec& spec) {
  bool music_only = true;
  for (Protocol p : spec.protocols) {
    if (p != Protocol::Music && p != Protocol::Mscp) music_only = false;
  }
  for (int s : spec.topology.shards) {
    if (s != 1 && !music_only) {
      return "shards > 1 needs a music/mscp-only protocol list (the "
             "cluster layer shards MUSIC groups; zab/raftkv cells have no "
             "shard ring)";
    }
  }
  for (const std::string& v : spec.topology.versions) {
    if (v.empty()) continue;
    if (!music_only) {
      return "a versions axis needs a music/mscp-only protocol list "
             "(zab/raftkv cells have no MUSIC wire protocol)";
    }
    // Every site pair must share a wire version or the fleet can never
    // form quorums (with today's min of 1 this only fires if the floor is
    // ever raised — exactly when we want the spec rejected loudly).
    std::array<uint8_t, 3> sv{static_cast<uint8_t>(v[0] - '0'),
                              static_cast<uint8_t>(v[2] - '0'),
                              static_cast<uint8_t>(v[4] - '0')};
    for (uint8_t site_max : sv) {
      if (site_max < wire::kWireVersionMin) {
        return "fleet versions " + v + ": a site's max wire version is " +
               "below the supported minimum " +
               std::to_string(wire::kWireVersionMin);
      }
    }
  }
  if (spec.faults.empty()) return "";
  std::string err;
  auto sched = fault::Schedule::parse(spec.faults, &err);
  if (!sched.has_value()) return "fault schedule: " + err;
  for (const fault::FaultSpec& f : sched->specs()) {
    if (!music_only) {
      if (f.kind == fault::FaultKind::CrashStore) {
        return "crash store faults need a music/mscp-only protocol list "
               "(no store replicas exist in zab/raftkv cells)";
      }
      if (f.kind == fault::FaultKind::CrashMusic) {
        return "crash music faults need a music/mscp-only protocol list";
      }
      if (f.kind == fault::FaultKind::Restart) {
        return "restart faults need a music/mscp-only protocol list (the "
               "nemesis bounces a site's store + MUSIC replicas)";
      }
    }
    std::string bad = fault::group_target_error(f, spec.topology.store_nodes);
    if (!bad.empty()) return bad;
    if (f.kind == fault::FaultKind::Restart &&
        f.version > static_cast<int>(wire::kWireVersionMax)) {
      return "restart version " + std::to_string(f.version) +
             ": this binary speaks at most wire version " +
             std::to_string(wire::kWireVersionMax);
    }
    for (const std::set<int>* side : {&f.side_a, &f.side_b}) {
      for (int site : *side) {
        if (site < 0 || site >= 3) {
          return "partition names site " + std::to_string(site) +
                 " (sites are 0..2)";
        }
      }
    }
    if (f.from_site >= 3 || f.to_site >= 3) {
      return "link fault names a site past 2 (sites are 0..2)";
    }
  }
  return "";
}

CellOutcome run_cell(const Cell& cell, size_t par_sites) {
  auto t0 = std::chrono::steady_clock::now();
  CellOutcome out;
  try {
    std::string err = validate(cell.point);
    if (!err.empty()) {
      out.label = cell.label();
      out.error = err;
    } else {
      bool sharded = cell.shards() != 1;
      switch (cell.protocol()) {
        case Protocol::Music:
          out = sharded
                    ? run_cluster_cell(cell, core::PutMode::Quorum, par_sites)
                    : run_music_cell(cell, core::PutMode::Quorum, par_sites);
          break;
        case Protocol::Mscp:
          out = sharded ? run_cluster_cell(cell, core::PutMode::Lwt, par_sites)
                        : run_music_cell(cell, core::PutMode::Lwt, par_sites);
          break;
        case Protocol::Zab:
          // The zab/raftkv substitutes are not lane-safe; they always run
          // on the classic kernel regardless of par_sites.
          out = run_baseline_cell<world::ZkWorld, ZabMixWorkload>(cell);
          break;
        case Protocol::RaftKv:
          out = run_baseline_cell<world::CdbWorld, CdbMixWorkload>(cell);
          break;
      }
    }
  } catch (const std::exception& e) {
    out = CellOutcome{};
    out.label = cell.label();
    out.error = std::string("exception: ") + e.what();
  }
  out.wall_sec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

ScenarioSpec reduced(ScenarioSpec spec, const RunOptions& opt) {
  if (opt.max_seeds > 0 && spec.seeds > opt.max_seeds) {
    spec.seeds = opt.max_seeds;
  }
  if (opt.max_warmup > 0 && spec.workload.warmup > opt.max_warmup) {
    spec.workload.warmup = opt.max_warmup;
  }
  if (opt.max_measure > 0 && spec.workload.measure > opt.max_measure) {
    spec.workload.measure = opt.max_measure;
  }
  return spec;
}

std::vector<CellOutcome> run_sweep(const ScenarioSpec& spec,
                                   const RunOptions& opt) {
  std::vector<Cell> cells = expand(reduced(spec, opt));
  if (opt.max_cells > 0 && cells.size() > opt.max_cells) {
    cells.resize(opt.max_cells);
  }
  size_t par_sites = opt.par_sites;
  return par::run_worlds(
      cells, [par_sites](const Cell& c) { return run_cell(c, par_sites); },
      opt.threads);
}

}  // namespace music::scn
