// The nemesis: executes fault Schedules against a live simulation.
//
// Layered strictly on the sim kernel: the nemesis knows how to partition the
// network and install link faults itself, while replica crashes are routed
// through caller-supplied hooks (NemesisHooks) so this library does not
// depend on the store or MUSIC layers — the world that owns the replicas
// wires crash/restart (and the amnesia-vs-durable distinction) in.
//
// Every injected fault is bracketed by an obs::Tracer span
// ("fault.partition", "fault.gray_link", ...) whose detail is the spec's
// describe() string, so outage windows render in Chrome traces right next to
// the protocol activity they disturb.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "fault/fault.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace music::obs {
class MetricsRegistry;
}  // namespace music::obs

namespace music::fault {

/// How the nemesis crashes and restarts replicas it does not own.  `down` is
/// true at crash, false at restart; `amnesia` asks for volatile state to be
/// wiped (the hook decides whether to wipe at crash or restart — the sim
/// can't observe the difference while the replica is down).
struct NemesisHooks {
  std::function<void(int replica, bool down, bool amnesia)> crash_store;
  std::function<void(int replica, bool down, bool amnesia)> crash_music;
  /// Bounce a whole site (rolling-upgrade step).  `down` is true when the
  /// site drains and stops, false when it comes back.  `version` is the max
  /// wire version the restarted process should advertise (0 = unchanged);
  /// it is only meaningful on the `down=false` call.
  std::function<void(int site, bool down, bool amnesia, int version)>
      restart_site;
};

/// Executes FaultSpecs: immediately (inject), or on the sim clock (arm).
class Nemesis {
 public:
  struct Counters {
    uint64_t partitions = 0;    // partitions begun
    uint64_t link_faults = 0;   // link fault specs begun
    uint64_t store_crashes = 0;
    uint64_t music_crashes = 0;
    uint64_t restarts = 0;      // site bounces begun (rolling-upgrade steps)
    uint64_t heals = 0;         // faults ended (timed or heal_all)
  };

  Nemesis(sim::Simulation& sim, sim::Network& net, NemesisHooks hooks = {});

  /// Schedules every spec in `schedule` at its `at` time (specs whose time
  /// is already past fire immediately).  May be called repeatedly.
  void arm(const Schedule& schedule);

  /// Applies one fault now.  If the spec has a duration, its heal is
  /// scheduled; otherwise it stays until heal_all().  A crash of a replica
  /// one of this nemesis's open crashes already holds down is skipped (not
  /// counted, no span): with overlapping schedules armed, the shorter fault
  /// must not restart a replica the longer one still holds.
  void inject(const FaultSpec& spec);

  /// Ends every fault this nemesis currently has open: heals partitions and
  /// link faults, restarts crashed replicas, closes their spans.
  void heal_all();

  /// Faults injected but not yet healed.
  size_t open_faults() const { return open_.size(); }

  const Counters& counters() const { return counters_; }

  /// Publishes counters under "nemesis.*".
  void export_metrics(obs::MetricsRegistry& reg) const;

 private:
  struct OpenFault {
    FaultSpec spec;
    sim::PartitionId partition = 0;
    std::vector<sim::LinkFaultId> links;
    uint64_t span = 0;  // obs::SpanId; 0 when no tracer attached
  };

  void heal(uint64_t id);
  bool holds_down(const FaultSpec& spec) const;

  sim::Simulation& sim_;
  sim::Network& net_;
  NemesisHooks hooks_;
  Counters counters_;
  std::map<uint64_t, OpenFault> open_;
  uint64_t next_id_ = 1;
};

}  // namespace music::fault
