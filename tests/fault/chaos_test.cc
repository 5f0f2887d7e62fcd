// The generated chaos schedule (fault::chaos_schedule) armed on a Nemesis:
// it breaks what it promises, heals by the end of its window, reproduces
// the randomized injector it replaced span for span, and the system keeps
// serving underneath it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "fault/fault.h"
#include "fault/nemesis.h"
#include "obs/trace.h"
#include "util/world.h"
#include "workload/driver.h"
#include "workload/runners.h"

namespace music::fault {
namespace {

using test::MusicWorld;

constexpr uint64_t kSeed = 0xC4405;

/// The world's chaos schedule over [0, until).
Schedule chaos_for(MusicWorld& w, uint64_t seed, sim::Time until,
                   int music_replicas = 3) {
  return chaos_schedule(seed, 0, until, w.net.num_sites(),
                        w.store.num_replicas(), music_replicas);
}

struct FaultSpan {
  std::string name;
  std::string detail;
  int64_t begin_us;
  int64_t end_us;

  bool operator==(const FaultSpan&) const = default;
};

std::vector<FaultSpan> fault_spans(const obs::Tracer& tracer) {
  std::vector<FaultSpan> v;
  for (const auto& s : tracer.spans()) {
    if (std::string_view(s.name).substr(0, 6) != "fault.") continue;
    v.push_back({s.name, s.detail, s.begin_us, s.end_us});
  }
  return v;
}

TEST(Chaos, InjectsConfiguredFaultKindsAndHeals) {
  MusicWorld w;
  Nemesis nemesis(w.sim, w.net, w.nemesis_hooks());
  nemesis.arm(chaos_for(w, kSeed, sim::sec(120)));
  w.sim.run_until(sim::sec(150));
  const auto& c = nemesis.counters();
  EXPECT_GT(c.store_crashes + c.music_crashes + c.partitions, 5u);
  // Everything healed at the end of the window.
  for (int i = 0; i < w.store.num_replicas(); ++i) {
    EXPECT_FALSE(w.store.replica(i).down()) << i;
  }
  for (auto& m : w.replicas) EXPECT_FALSE(m->down());
  EXPECT_TRUE(w.net.deliverable(w.store.replica(0).node(),
                                w.store.replica(1).node()));
}

TEST(Chaos, KindsCanBeDisabled) {
  // A world with no MUSIC replicas to crash: only store crashes and
  // partitions are drawn.
  MusicWorld w;
  Schedule s = chaos_for(w, kSeed, sim::sec(300), /*music_replicas=*/0);
  uint64_t store = 0, partitions = 0;
  for (const FaultSpec& f : s.specs()) {
    EXPECT_NE(f.kind, FaultKind::CrashMusic) << f.describe();
    if (f.kind == FaultKind::CrashStore) ++store;
    if (f.kind == FaultKind::Partition) ++partitions;
  }
  EXPECT_GT(store, 3u);
  EXPECT_GT(partitions, 3u);
  Nemesis nemesis(w.sim, w.net, w.nemesis_hooks());
  nemesis.arm(s);
  w.sim.run_until(sim::sec(310));
  EXPECT_EQ(nemesis.counters().music_crashes, 0u);
  EXPECT_EQ(nemesis.counters().store_crashes, store);
  EXPECT_EQ(nemesis.counters().partitions, partitions);
}

TEST(Chaos, SystemKeepsServingUnderInjection) {
  world::Options opt = test::options();
  opt.client_sites = world::grouped_sites(2);
  opt.music.holder_timeout = sim::sec(6);
  opt.music.fd_interval = sim::sec(1);
  opt.failure_detector = true;
  MusicWorld w(opt);
  Nemesis nemesis(w.sim, w.net, w.nemesis_hooks());
  nemesis.arm(chaos_for(w, kSeed, sim::sec(70)));

  auto workload =
      std::make_shared<wl::MusicCsWorkload>(w.client_ptrs(), "ch", 1, 10);
  wl::DriverConfig cfg;
  cfg.clients = static_cast<int>(w.clients.size());
  cfg.warmup = sim::sec(2);
  cfg.measure = sim::sec(60);
  cfg.drain = sim::sec(60);
  auto r = wl::run_closed_loop(w.sim, workload, cfg);
  // A majority is always up, so most sections complete despite the faults.
  EXPECT_GT(r.completed, 20u);
  EXPECT_GT(static_cast<double>(r.completed),
            4.0 * static_cast<double>(r.failed));
}

TEST(Chaos, EverythingBrokenIsHealedByUntil) {
  // Outages are clamped to the window: at `until` (not merely "eventually
  // after"), nothing injected is still broken.
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    Schedule s = chaos_schedule(seed, 0, sim::sec(30), 3, 3, 3);
    for (const FaultSpec& f : s.specs()) {
      EXPECT_LE(f.at + f.duration, sim::sec(30)) << seed << ": " << f.describe();
    }
  }
  MusicWorld w;
  Nemesis nemesis(w.sim, w.net, w.nemesis_hooks());
  sim::Time until = sim::sec(30);
  nemesis.arm(chaos_for(w, kSeed, until));
  w.sim.run_until(until);
  EXPECT_EQ(nemesis.open_faults(), 0u);
  EXPECT_EQ(w.net.active_partitions(), 0u);
  for (int i = 0; i < w.store.num_replicas(); ++i) {
    EXPECT_FALSE(w.store.replica(i).down()) << i;
  }
  for (auto& m : w.replicas) EXPECT_FALSE(m->down());
}

TEST(Chaos, InjectedFaultCountersMatchScheduleAndSpans) {
  obs::Tracer tracer;
  MusicWorld w;
  w.sim.set_tracer(&tracer);
  Schedule s = chaos_for(w, kSeed, sim::sec(120));
  Nemesis nemesis(w.sim, w.net, w.nemesis_hooks());
  nemesis.arm(s);
  w.sim.run_until(sim::sec(130));
  w.sim.set_tracer(nullptr);

  // The nemesis's counters agree with the schedule it was armed with.
  const auto& c = nemesis.counters();
  uint64_t total = c.store_crashes + c.music_crashes + c.partitions;
  EXPECT_GT(total, 0u);
  EXPECT_EQ(total, s.size());
  EXPECT_EQ(c.heals, total);  // every injected fault was healed

  // One "fault.*" span per injected fault, every one closed (outage over).
  auto spans = fault_spans(tracer);
  for (const auto& f : spans) EXPECT_GE(f.end_us, 0) << f.name << " " << f.detail;
  EXPECT_EQ(spans.size(), total);
}

TEST(Chaos, DeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    MusicWorld w;
    Nemesis nemesis(w.sim, w.net, w.nemesis_hooks());
    Schedule s = chaos_for(w, seed, sim::sec(120), /*music_replicas=*/0);
    nemesis.arm(s);
    w.sim.run_until(sim::sec(130));
    return std::tuple<std::string, uint64_t, uint64_t>(
        s.describe(), nemesis.counters().store_crashes,
        nemesis.counters().partitions);
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(std::get<0>(run(7)), std::get<0>(run(8)));
}

// The fault spans the randomized injector this schedule replaced produced
// on a 3-store, 3-MUSIC-replica world over a 60 s window.  The generated
// schedule must reproduce them exactly: same faults, same times.
TEST(Chaos, ReproducesTheRandomizedInjectorSpans) {
  const std::vector<std::pair<uint64_t, std::vector<FaultSpan>>> pinned = {
      {0xC4405,
       {{"fault.crash_store", "crash store 2 for 3105321us", 10239133, 13344454},
        {"fault.crash_music", "crash music 2 for 3330419us", 25006773, 28337192},
        {"fault.crash_music", "crash music 0 for 2306195us", 35594702, 37900897},
        {"fault.partition", "partition {0}|{1,2} for 1625587us", 45341406,
         46966993},
        {"fault.crash_music", "crash music 0 for 1156475us", 54618874,
         55775349}}},
      {222,
       {{"fault.crash_store", "crash store 2 for 3142771us", 13717146, 16859917},
        {"fault.partition", "partition {1}|{0,2} for 2680324us", 24645016,
         27325340},
        {"fault.partition", "partition {2}|{0,1} for 612815us", 39936296,
         40549111},
        {"fault.crash_store", "crash store 1 for 2454768us", 46312217, 48766985},
        {"fault.partition", "partition {1}|{0,2} for 3417026us", 53997428,
         57414454}}},
  };
  for (const auto& [seed, want] : pinned) {
    obs::Tracer tracer;
    MusicWorld w;
    w.sim.set_tracer(&tracer);
    Nemesis nemesis(w.sim, w.net, w.nemesis_hooks());
    nemesis.arm(chaos_for(w, seed, sim::sec(60)));
    w.sim.run_until(sim::sec(70));
    w.sim.set_tracer(nullptr);
    EXPECT_EQ(fault_spans(tracer), want) << "seed " << seed;
  }
}

TEST(Chaos, CrashOfAReplicaAlreadyHeldDownIsSkipped) {
  // Two schedules on one nemesis (the CLI's --nemesis plus --chaos): the
  // shorter crash of a replica the longer one holds is skipped, so the
  // replica stays down for the longer outage.
  MusicWorld w;
  Nemesis nemesis(w.sim, w.net, w.nemesis_hooks());
  nemesis.arm(Schedule().crash_store_at(sim::sec(1), 1, sim::sec(10)));
  nemesis.arm(Schedule().crash_store_at(sim::sec(2), 1, sim::sec(1)));
  w.sim.run_until(sim::sec(5));
  EXPECT_TRUE(w.store.replica(1).down());
  EXPECT_EQ(nemesis.counters().store_crashes, 1u);
  w.sim.run_until(sim::sec(12));
  EXPECT_FALSE(w.store.replica(1).down());
  EXPECT_EQ(nemesis.counters().heals, 1u);
}

}  // namespace
}  // namespace music::fault
