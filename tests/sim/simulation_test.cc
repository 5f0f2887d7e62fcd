// Unit tests for the discrete-event kernel: ordering, clock advancement,
// determinism, event payload lifecycle.
#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <utility>
#include <vector>

namespace music::sim {
namespace {

TEST(Simulation, StartsAtTimeZeroAndIdle) {
  Simulation s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_TRUE(s.idle());
  EXPECT_FALSE(s.step());
}

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule(300, [&] { order.push_back(3); });
  s.schedule(100, [&] { order.push_back(1); });
  s.schedule(200, [&] { order.push_back(2); });
  s.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 300);
}

TEST(Simulation, SameTimeEventsRunInSchedulingOrder) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(50, [&order, i] { order.push_back(i); });
  }
  s.run_until_idle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, NegativeDelayClampsToNow) {
  Simulation s;
  s.schedule(100, [] {});
  s.run_until_idle();
  bool ran = false;
  s.schedule(-50, [&] { ran = true; });
  s.run_until_idle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), 100);
}

TEST(Simulation, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulation s;
  s.run_until(5000);
  EXPECT_EQ(s.now(), 5000);
  s.run_for(2500);
  EXPECT_EQ(s.now(), 7500);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation s;
  int ran = 0;
  s.schedule(100, [&] { ++ran; });
  s.schedule(200, [&] { ++ran; });
  s.schedule(300, [&] { ++ran; });
  s.run_until(200);
  EXPECT_EQ(ran, 2);  // t=100 and t=200 inclusive
  EXPECT_EQ(s.now(), 200);
  s.run_until_idle();
  EXPECT_EQ(ran, 3);
}

TEST(Simulation, EventsCanScheduleMoreEvents) {
  Simulation s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule(10, recurse);
  };
  s.schedule(10, recurse);
  s.run_until_idle();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 1000);
}

TEST(Simulation, DeterministicAcrossRunsWithSameSeed) {
  auto run = [](uint64_t seed) {
    Simulation s(seed);
    std::vector<int64_t> draws;
    for (int i = 0; i < 32; ++i) draws.push_back(s.rng().uniform_int(0, 1000));
    return draws;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(Simulation, CurrentSimulationSetDuringStep) {
  Simulation s;
  EXPECT_EQ(current_simulation(), nullptr);
  Simulation* seen = nullptr;
  s.schedule(1, [&] { seen = current_simulation(); });
  s.run_until_idle();
  EXPECT_EQ(seen, &s);
  EXPECT_EQ(current_simulation(), nullptr);
}

TEST(Simulation, EventCounterAdvances) {
  Simulation s;
  for (int i = 0; i < 5; ++i) s.schedule(i, [] {});
  s.run_until_idle();
  EXPECT_EQ(s.events_run(), 5u);
}

// An event running at time t can schedule follow-ups for that same instant
// (delay 0) or any time <= the run_until bound; all of them must run within
// the same run_until call, not leak into the next one.
TEST(Simulation, RunUntilRunsEventsScheduledDuringTheCall) {
  Simulation s;
  std::vector<int> ran;
  s.schedule(100, [&] {
    ran.push_back(1);
    s.schedule(0, [&] { ran.push_back(2); });   // same instant, t=100
    s.schedule(50, [&] { ran.push_back(3); });  // t=150, still <= bound
    s.schedule(51, [&] { ran.push_back(4); });  // t=151, past the bound
  });
  s.run_until(150);
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 150);
  s.run_until_idle();
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3, 4}));
}

/// Counts live instances and flags any invocation of a moved-from callable.
/// Regression guard for the old kernel's const_cast-move-out-of-top idiom:
/// the popped event's payload must be moved out of the queue before it runs
/// and the husk must never be compared against or invoked again.
struct EventProbe {
  static int live;
  static int calls_on_moved_from;
  std::vector<int>* order;
  int id;
  bool moved_from = false;

  EventProbe(std::vector<int>* o, int i) : order(o), id(i) { ++live; }
  EventProbe(EventProbe&& o) noexcept : order(o.order), id(o.id) {
    ++live;
    o.moved_from = true;
  }
  EventProbe(const EventProbe&) = delete;
  ~EventProbe() { --live; }
  void operator()() {
    if (moved_from) ++calls_on_moved_from;
    order->push_back(id);
  }
};
int EventProbe::live = 0;
int EventProbe::calls_on_moved_from = 0;

TEST(Simulation, PoppedEventsAreMovedOutOnceAndDestroyed) {
  EventProbe::live = 0;
  EventProbe::calls_on_moved_from = 0;
  std::vector<int> order;
  {
    Simulation s;
    // Interleave enough same-time and distinct-time events that heap pops
    // recycle slots while later events are still queued.
    for (int i = 0; i < 64; ++i) {
      s.schedule((i % 8) * 10, EventProbe(&order, i));
    }
    // Events scheduled from inside a running event land in freshly recycled
    // slots (the running event's slot is released before its callback runs).
    s.schedule(5, [&s, &order] {
      for (int i = 64; i < 72; ++i) s.schedule(10, EventProbe(&order, i));
    });
    s.run_until_idle();
    EXPECT_EQ(order.size(), 72u);
    EXPECT_EQ(EventProbe::calls_on_moved_from, 0);
    EXPECT_EQ(EventProbe::live, 0);  // every capture destroyed after running
  }
  // Each id ran exactly once.
  std::vector<int> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 72; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(Simulation, PendingEventsAreDestroyedWithTheSimulation) {
  EventProbe::live = 0;
  std::vector<int> order;
  {
    Simulation s;
    for (int i = 0; i < 16; ++i) s.schedule(100 + i, EventProbe(&order, i));
    EXPECT_EQ(EventProbe::live, 16);
    s.run_until(105);  // run a few, leave the rest queued
  }
  EXPECT_EQ(EventProbe::live, 0);  // queued captures freed by the destructor
}

TEST(Simulation, LargeCapturesRunCorrectly) {
  // A capture past InlineFn's 64-byte inline buffer takes the pooled path;
  // the payload must survive heap sifts and slot recycling intact.
  Simulation s;
  uint64_t big[32];
  for (int i = 0; i < 32; ++i) big[static_cast<size_t>(i)] = static_cast<uint64_t>(i + 1);
  uint64_t sum = 0;
  for (int rep = 0; rep < 100; ++rep) {
    s.schedule(rep, [big, &sum] {
      for (uint64_t v : big) sum += v;
    });
  }
  s.run_until_idle();
  EXPECT_EQ(sum, 100u * (32u * 33u / 2u));
}

// Stress: random times, including rescheduling from inside callbacks, must
// execute in exactly (time, scheduling order) — compared against a stable
// sort of the schedule log.
TEST(Simulation, StressOrderingMatchesReferenceModel) {
  Simulation s;
  std::mt19937 gen(12345);
  std::uniform_int_distribution<int64_t> dist(0, 50);

  struct Logged {
    Time at;
    int id;
  };
  std::vector<Logged> scheduled;  // in seq order
  std::vector<int> ran;
  int next_id = 0;

  std::function<void(int)> spawn_children = [&](int remaining) {
    if (remaining <= 0) return;
    Duration d = dist(gen);
    int id = next_id++;
    scheduled.push_back({s.now() + d, id});
    s.schedule(d, [&, id, remaining] {
      ran.push_back(id);
      spawn_children(remaining - 1);
    });
  };

  for (int i = 0; i < 200; ++i) {
    Duration d = dist(gen);
    int id = next_id++;
    scheduled.push_back({d, id});
    s.schedule(d, [&ran, id] { ran.push_back(id); });
  }
  spawn_children(100);
  s.run_until_idle();

  // Reference: stable sort by time keeps seq order within a timestamp.
  // scheduled[] is only appended to in seq order, including the entries the
  // running events added, so this reproduces the kernel's contract.
  std::vector<Logged> expected = scheduled;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Logged& a, const Logged& b) { return a.at < b.at; });
  ASSERT_EQ(ran.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(ran[i], expected[i].id) << "at index " << i;
  }
}

// ---- Timer cancellation -----------------------------------------------------

TEST(Cancel, FarTimerNeverRunsIsNotCountedAndFreesCapturesAtCancel) {
  EventProbe::live = 0;
  std::vector<int> order;
  Simulation s;
  s.schedule(10, [&order] { order.push_back(0); });
  TimerId t = s.schedule_timer(sec(1), EventProbe(&order, 1));
  ASSERT_TRUE(t);
  EXPECT_EQ(EventProbe::live, 1);
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_TRUE(s.cancel(t));
  EXPECT_EQ(EventProbe::live, 0);  // captures destroyed at cancel, not later
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.timers_cancelled(), 1u);
  EXPECT_FALSE(s.cancel(t));  // a second cancel is a no-op
  s.run_until_idle();
  EXPECT_EQ(order, std::vector<int>{0});
  EXPECT_EQ(s.events_run(), 1u);
  EXPECT_EQ(s.now(), 10);  // the cancelled timer did not move the clock
  EXPECT_EQ(s.timers_cancelled(), 1u);
}

TEST(Cancel, AfterTheTimerFiredIsANoOp) {
  Simulation s;
  int fired = 0;
  TimerId t = s.schedule_timer(ms(5), [&fired] { ++fired; });
  ASSERT_TRUE(t);
  s.run_until_idle();
  EXPECT_EQ(fired, 1);
  // The slot is vacant now, then reused by a later far event: neither may
  // be mistaken for the fired timer.
  EXPECT_FALSE(s.cancel(t));
  int later = 0;
  s.schedule(ms(5), [&later] { ++later; });
  EXPECT_FALSE(s.cancel(t));
  s.run_until_idle();
  EXPECT_EQ(later, 1);
  EXPECT_EQ(s.events_run(), 2u);
  EXPECT_EQ(s.timers_cancelled(), 0u);
}

TEST(Cancel, FromInsideTheTimersOwnCallbackIsANoOp) {
  Simulation s;
  TimerId t;
  bool cancelled = true;
  t = s.schedule_timer(ms(5), [&] { cancelled = s.cancel(t); });
  s.run_until_idle();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(s.events_run(), 1u);
}

TEST(Cancel, NearTimerGetsAnEmptyHandleAndRuns) {
  Simulation s;
  int fired = 0;
  TimerId t = s.schedule_timer(Simulation::kWheelTicks - 1, [&] { ++fired; });
  EXPECT_FALSE(t);
  EXPECT_FALSE(s.cancel(t));
  EXPECT_FALSE(s.cancel(TimerId()));
  s.run_until_idle();
  EXPECT_EQ(fired, 1);
}

TEST(Cancel, CompactionKeepsSurvivorsInOrder) {
  Simulation s;
  std::vector<int> order;
  std::vector<TimerId> ids;
  // Equal timestamps in pairs, so compaction must keep the seq tie-break.
  for (int i = 0; i < 100; ++i) {
    ids.push_back(s.schedule_timer(ms(10) + (99 - i) / 2,
                                   [&order, i] { order.push_back(i); }));
  }
  // Cancel 60 (never the front), which passes half the heap mid-way.
  for (int i = 0; i < 100; ++i) {
    if (i % 5 < 3) {
      ASSERT_TRUE(s.cancel(ids[static_cast<size_t>(i)]));
    }
  }
  EXPECT_EQ(s.pending(), 40u);
  s.run_until_idle();
  std::vector<int> expected;
  for (int i = 98; i >= 0; i -= 2) {
    for (int j : {i, i + 1}) {
      if (j % 5 >= 3) expected.push_back(j);
    }
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(s.events_run(), 40u);
}

/// One run of the cancellation property workload.  Live events draw every
/// decision from `gen` and log (now, id); timers that the workload cancels
/// are also flagged, so a timer that still runs (cancel unavailable or
/// `use_cancel` off) is a no-op that draws and logs nothing.  With
/// `use_cancel` off the run is the twin in which every cancelled timer
/// fires as that no-op — exactly what the kernel did before cancel().
struct CancelRun {
  std::vector<std::pair<Time, int>> log;
  uint64_t events_run = 0;
  uint64_t timers_cancelled = 0;
  uint64_t cancels_ok = 0;
};

CancelRun run_cancel_workload(uint32_t seed, bool use_cancel) {
  Simulation s;
  std::mt19937 gen(seed);
  CancelRun out;
  struct Timer {
    TimerId id;
    bool cancelled = false;
  };
  std::vector<Timer> timers;
  int next_id = 0;
  int budget = 4000;
  // Delays mix ties (0), wheel-range hops and far-heap timeouts, so heap
  // pops, wheel pops and stale tombstones interleave at equal timestamps.
  auto delay = [&gen]() -> Duration {
    switch (gen() % 4) {
      case 0: return 0;
      case 1: return static_cast<Duration>(gen() % 64);
      case 2: return static_cast<Duration>(gen() % Simulation::kWheelTicks);
      default: return static_cast<Duration>(2000 + gen() % 20000);
    }
  };
  // Timeouts: mostly far and long, like an RPC's, so most are still
  // pending when the workload cancels them.
  auto timeout = [&gen, &delay]() -> Duration {
    return gen() % 4 == 0 ? delay()
                          : static_cast<Duration>(2000 + gen() % 200000);
  };
  std::function<void()> live_event;
  live_event = [&] {
    out.log.emplace_back(s.now(), next_id++);
    if (--budget <= 0) return;
    int children = static_cast<int>(gen() % 3);
    for (int c = 0; c < children; ++c) s.schedule(delay(), [&] { live_event(); });
    // Arm a timeout most of the time and cancel most of them (enough that
    // tombstones pass half the heap and force compactions).
    if (gen() % 4 != 0) {
      size_t idx = timers.size();
      timers.push_back(Timer{});
      timers[idx].id = s.schedule_timer(timeout(), [&, idx] {
        if (timers[idx].cancelled) return;  // settled: a no-op, as before
        live_event();
      });
    }
    if (!timers.empty() && gen() % 3 != 0) {
      size_t recent = std::min<size_t>(timers.size(), 8);
      Timer& t = timers[timers.size() - 1 - gen() % recent];
      t.cancelled = true;
      if (use_cancel && s.cancel(t.id)) ++out.cancels_ok;
    }
  };
  for (int i = 0; i < 8; ++i) s.schedule(delay(), [&] { live_event(); });
  s.run_until_idle();
  EXPECT_EQ(s.pending(), 0u);
  out.events_run = s.events_run();
  out.timers_cancelled = s.timers_cancelled();
  return out;
}

TEST(Cancel, PropertyLiveEventsMatchANoOpTimerTwin) {
  for (uint32_t seed = 1; seed <= 12; ++seed) {
    CancelRun twin = run_cancel_workload(seed, false);
    CancelRun run = run_cancel_workload(seed, true);
    // Same live events, in the same (at, seq) order, at the same now().
    ASSERT_EQ(run.log, twin.log) << "seed " << seed;
    // ~1.4k cancels per seed; tombstones pass half the heap 1-3 times.
    EXPECT_GT(run.cancels_ok, 1000u) << "seed " << seed;
    EXPECT_EQ(run.timers_cancelled, run.cancels_ok);
    EXPECT_EQ(twin.timers_cancelled, 0u);
    // Each successful cancel removed exactly one (no-op) event.
    EXPECT_EQ(run.events_run + run.cancels_ok, twin.events_run)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace music::sim
