// Integration: the tracer measures exactly the WAN round trips the paper's
// §X-B4 cost table declares, tracing never perturbs the simulation, and the
// disabled path allocates nothing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include "core/client.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/span.h"
#include "util/world.h"

// Global allocation counter for the zero-cost-when-disabled test.  The
// default operator new[] forwards here, so one override pair suffices.
namespace {
size_t g_allocs = 0;
}

// noinline: if GCC 12 inlines these malloc/free bodies into callers it
// pairs the free() against the *declared* operator new and mis-fires
// -Werror=mismatched-new-delete; kept out-of-line they pair correctly.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace music::obs {
namespace {

using test::MusicWorld;

uint64_t root_rtts(const Tracer& t, const char* name) {
  for (const Span& s : t.spans()) {
    if (s.parent == 0 && s.finished() && std::strcmp(s.name, name) == 0) {
      return s.rtts;
    }
  }
  return ~uint64_t{0};
}

sim::Task<void> one_section(core::MusicClient& c) {
  auto ref = co_await c.create_lock_ref("cost");
  co_await c.acquire_lock_blocking("cost", ref.value());
  co_await c.critical_put("cost", ref.value(), Value("v"));
  co_await c.critical_get("cost", ref.value());
  co_await c.release_lock("cost", ref.value());
}

// The §X-B4 cost table, measured: createLockRef and releaseLock each run
// one LWT (4 round trips: prepare, read, accept, commit); acquireLock's
// grant is one quorum read of the synchFlag; criticalPut (Quorum mode) and
// criticalGet are one quorum round each.
TEST(ObsCostModel, Xb4RoundTripsUnderLUsEu) {
  world::Options opt = test::options();
  opt.net.profile = sim::LatencyProfile::profile_luseu();
  opt.net.jitter_frac = 0.0;  // deterministic latencies, same counts
  MusicWorld w(opt);
  Tracer tracer;
  w.sim.set_tracer(&tracer);
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await one_section(c);
  });
  ASSERT_TRUE(ok);
  w.sim.set_tracer(nullptr);

  EXPECT_EQ(root_rtts(tracer, "client.create_lock_ref"), 4u);
  EXPECT_EQ(root_rtts(tracer, "client.acquire_lock"), 1u);
  EXPECT_EQ(root_rtts(tracer, "client.critical_put"), 1u);
  EXPECT_EQ(root_rtts(tracer, "client.critical_get"), 1u);
  EXPECT_EQ(root_rtts(tracer, "client.release_lock"), 4u);
}

// Tracing must be an observer: a traced run and an untraced run with the
// same seed execute the identical event sequence — same messages, same
// events, same final clock.
TEST(ObsCostModel, TracingDoesNotPerturbTheSimulation) {
  struct Fingerprint {
    uint64_t msgs, wan, events;
    int64_t now;
  };
  auto run = [](bool traced) {
    world::Options opt = test::options();
    opt.seed = 42;
    MusicWorld w(opt);
    Tracer tracer;
    if (traced) w.sim.set_tracer(&tracer);
    auto& c = w.client(0);
    bool ok = w.runner.run([&]() -> sim::Task<void> {
      for (int i = 0; i < 3; ++i) co_await one_section(c);
    });
    EXPECT_TRUE(ok);
    if (traced) {
      EXPECT_GT(tracer.spans().size(), 0u);
    }
    return Fingerprint{w.net.messages_sent(), w.net.wan_messages_sent(),
                       w.sim.events_run(), w.sim.now()};
  };
  Fingerprint off = run(false);
  Fingerprint on = run(true);
  EXPECT_EQ(off.msgs, on.msgs);
  EXPECT_EQ(off.wan, on.wan);
  EXPECT_EQ(off.events, on.events);
  EXPECT_EQ(off.now, on.now);
}

// With no tracer installed, the instrumentation hot path (OpSpan ctor/dtor,
// trace_rtts) is two loads and a branch: no heap allocations at all.
TEST(ObsCostModel, DisabledPathDoesNotAllocate) {
  sim::Simulation s(1);
  ASSERT_EQ(s.tracer(), nullptr);
  size_t before = g_allocs;
  for (int i = 0; i < 1000; ++i) {
    sim::OpSpan span(s, "probe", 0, 0, "some-key-detail");
    sim::trace_rtts(s, 1);
    span.finish();
  }
  EXPECT_EQ(g_allocs, before);
}

// Span counters decompose the network totals: the sum of root-span message
// counts equals the messages attributable to client operations, and every
// WAN message the tracer saw is in the network's WAN counter.
TEST(ObsCostModel, SpanMessageCountsMatchNetworkCounters) {
  world::Options opt = test::options();
  opt.net.jitter_frac = 0.0;
  MusicWorld w(opt);
  Tracer tracer;
  MetricsRegistry reg;
  tracer.set_registry(&reg);
  w.sim.set_tracer(&tracer);
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await one_section(c);
  });
  ASSERT_TRUE(ok);
  w.sim.set_tracer(nullptr);

  uint64_t root_msgs = 0, root_wan = 0;
  for (const Span& s : tracer.spans()) {
    if (s.parent != 0) continue;
    root_msgs += s.msgs;
    root_wan += s.wan_msgs;
  }
  // Background services (failure detector, hints) may send outside any
  // span, so root spans cover at most the network totals — and for this
  // quiet world, the client ops dominate.
  EXPECT_LE(root_wan, w.net.wan_messages_sent());
  EXPECT_LE(root_msgs, w.net.messages_sent());
  EXPECT_GT(root_msgs, 0u);

  // The registry got per-span-name histograms via the tracer.
  EXPECT_GE(reg.histograms().count("span.client.critical_put"), 1u);

  // Network export lands per-kind and per-pair counters in the registry.
  w.net.export_metrics(reg);
  EXPECT_EQ(reg.counters().at("net.msgs.sent").value, w.net.messages_sent());
  uint64_t pair_total = 0;
  for (const auto& [name, ctr] : reg.counters()) {
    if (name.rfind("net.pair.", 0) == 0 &&
        name.size() > 5 && name.compare(name.size() - 5, 5, ".msgs") == 0) {
      pair_total += ctr.value;
    }
  }
  EXPECT_EQ(pair_total, w.net.messages_sent());
}

}  // namespace
}  // namespace music::obs
