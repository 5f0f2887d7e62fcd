#include "fault/nemesis.h"

#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace music::fault {
namespace {

/// Span names must be string literals (obs::Span::name points at static
/// storage), so map each kind to one.
const char* span_name(FaultKind k) {
  switch (k) {
    case FaultKind::Partition: return "fault.partition";
    case FaultKind::Blackhole: return "fault.blackhole";
    case FaultKind::GrayLink: return "fault.gray_link";
    case FaultKind::LatencySpike: return "fault.latency_spike";
    case FaultKind::Duplication: return "fault.duplication";
    case FaultKind::CrashStore: return "fault.crash_store";
    case FaultKind::CrashMusic: return "fault.crash_music";
    case FaultKind::Restart: return "fault.restart";
  }
  return "fault.unknown";
}

sim::LinkFault to_link_fault(const FaultSpec& spec) {
  sim::LinkFault f;
  switch (spec.kind) {
    case FaultKind::Blackhole:
      f.blackhole = true;
      break;
    case FaultKind::GrayLink:
      f.extra_drop = spec.loss;
      f.extra_delay_ms = spec.delay_ms;
      break;
    case FaultKind::LatencySpike:
      f.extra_delay_ms = spec.delay_ms;
      break;
    case FaultKind::Duplication:
      f.dup_prob = spec.dup_prob;
      break;
    default:
      assert(false && "not a link fault");
  }
  return f;
}

}  // namespace

Nemesis::Nemesis(sim::Simulation& sim, sim::Network& net, NemesisHooks hooks)
    : sim_(sim), net_(net), hooks_(std::move(hooks)) {}

void Nemesis::arm(const Schedule& schedule) {
  for (const FaultSpec& spec : schedule.specs()) {
    sim::Duration delay = spec.at - sim_.now();
    if (delay < 0) delay = 0;
    sim_.schedule(delay, [this, spec] { inject(spec); });
  }
}

void Nemesis::inject(const FaultSpec& spec) {
  if (holds_down(spec)) return;
  OpenFault f;
  f.spec = spec;
  switch (spec.kind) {
    case FaultKind::Partition:
      f.partition = net_.partition_sites(spec.side_a, spec.side_b);
      ++counters_.partitions;
      break;
    case FaultKind::Blackhole:
    case FaultKind::GrayLink:
    case FaultKind::LatencySpike:
    case FaultKind::Duplication: {
      sim::LinkFault lf = to_link_fault(spec);
      f.links.push_back(net_.add_link_fault(spec.from_site, spec.to_site, lf));
      if (spec.bidirectional) {
        f.links.push_back(
            net_.add_link_fault(spec.to_site, spec.from_site, lf));
      }
      ++counters_.link_faults;
      break;
    }
    case FaultKind::CrashStore:
      if (hooks_.crash_store) {
        hooks_.crash_store(spec.replica, /*down=*/true, spec.amnesia);
      }
      ++counters_.store_crashes;
      break;
    case FaultKind::CrashMusic:
      if (hooks_.crash_music) {
        hooks_.crash_music(spec.replica, /*down=*/true, spec.amnesia);
      }
      ++counters_.music_crashes;
      break;
    case FaultKind::Restart:
      if (hooks_.restart_site) {
        hooks_.restart_site(spec.site, /*down=*/true, spec.amnesia,
                            spec.version);
      }
      ++counters_.restarts;
      break;
  }
  if (obs::Tracer* t = sim_.tracer()) {
    f.span = t->begin(span_name(spec.kind), sim_.now(), /*parent=*/0,
                      /*site=*/-1, /*node=*/-1, spec.describe());
  }
  uint64_t id = next_id_++;
  open_.emplace(id, std::move(f));
  if (spec.duration > 0) {
    sim_.schedule(spec.duration, [this, id] { heal(id); });
  }
}

bool Nemesis::holds_down(const FaultSpec& spec) const {
  if (spec.kind != FaultKind::CrashStore && spec.kind != FaultKind::CrashMusic) {
    return false;
  }
  for (const auto& [id, f] : open_) {
    if (f.spec.kind == spec.kind && f.spec.replica == spec.replica) return true;
  }
  return false;
}

void Nemesis::heal(uint64_t id) {
  auto it = open_.find(id);
  if (it == open_.end()) return;  // heal_all got there first
  OpenFault& f = it->second;
  switch (f.spec.kind) {
    case FaultKind::Partition:
      net_.heal_partition(f.partition);
      break;
    case FaultKind::Blackhole:
    case FaultKind::GrayLink:
    case FaultKind::LatencySpike:
    case FaultKind::Duplication:
      for (sim::LinkFaultId l : f.links) net_.remove_link_fault(l);
      break;
    case FaultKind::CrashStore:
      if (hooks_.crash_store) {
        hooks_.crash_store(f.spec.replica, /*down=*/false, f.spec.amnesia);
      }
      break;
    case FaultKind::CrashMusic:
      if (hooks_.crash_music) {
        hooks_.crash_music(f.spec.replica, /*down=*/false, f.spec.amnesia);
      }
      break;
    case FaultKind::Restart:
      if (hooks_.restart_site) {
        hooks_.restart_site(f.spec.site, /*down=*/false, f.spec.amnesia,
                            f.spec.version);
      }
      break;
  }
  if (obs::Tracer* t = sim_.tracer()) t->end(f.span, sim_.now());
  ++counters_.heals;
  open_.erase(it);
}

void Nemesis::heal_all() {
  while (!open_.empty()) heal(open_.begin()->first);
}

void Nemesis::export_metrics(obs::MetricsRegistry& reg) const {
  reg.set("nemesis.partitions", counters_.partitions);
  reg.set("nemesis.link_faults", counters_.link_faults);
  reg.set("nemesis.crashes.store", counters_.store_crashes);
  reg.set("nemesis.crashes.music", counters_.music_crashes);
  reg.set("nemesis.restarts", counters_.restarts);
  reg.set("nemesis.heals", counters_.heals);
  reg.set("nemesis.open", open_.size());
}

}  // namespace music::fault
