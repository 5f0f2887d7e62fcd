// The pipelined client API: CriticalSection handle lifecycle and Session
// batching semantics, including the PR's headline property — N independent-
// key criticalPuts cost ONE value-quorum WAN round trip when flushed as a
// batch, vs N sequential rounds unbatched (asserted off the metrics
// registry the tracer feeds).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/client.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/world.h"

namespace music::core {
namespace {

using test::MusicWorld;

TEST(CriticalSection, LifecyclePutGetExit) {
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    CriticalSection cs(c, "k");
    CO_ASSERT_FALSE(cs.held());
    auto acq = co_await cs.enter();
    CO_ASSERT_TRUE(acq.ok());
    CO_ASSERT_TRUE(cs.held());
    CO_ASSERT_TRUE((co_await cs.put(Value("v1"))).ok());
    auto g = co_await cs.get();
    CO_ASSERT_TRUE(g.ok());
    CO_ASSERT_EQ(g.value().data, "v1");
    CO_ASSERT_TRUE((co_await cs.exit()).ok());
    CO_ASSERT_FALSE(cs.held());
    // The handle is reusable: enter again under a fresh lockRef.
    CO_ASSERT_TRUE((co_await cs.enter()).ok());
    CO_ASSERT_TRUE((co_await cs.exit()).ok());
  });
  EXPECT_TRUE(ok);
}

// Dropping a held handle releases the lock in the background: a second
// client's acquire must be granted without waiting for the failure
// detector's holder timeout.
TEST(CriticalSection, DestructorReleasesDetached) {
  MusicWorld w;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    {
      CriticalSection cs(w.client(0), "k");
      CO_ASSERT_TRUE((co_await cs.enter()).ok());
    }  // no exit(): the destructor spawns the release
    CriticalSection cs2(w.client(1), "k");
    CO_ASSERT_TRUE((co_await cs2.enter()).ok());
    CO_ASSERT_TRUE((co_await cs2.exit()).ok());
  }, sim::sec(30));  // well under any holder-timeout path
  EXPECT_TRUE(ok);
}

// The acceptance property: 8 independent-key criticalPuts in one Session
// flush cost exactly 1 value-quorum WAN round trip; the same 8 puts issued
// sequentially cost 8.  Both sides are read off the MetricsRegistry that
// the tracer rolls span RTTs into.
TEST(Session, EightIndependentPutsCostOneQuorumRoundTrip) {
  uint64_t batched = 0, unbatched = 0;
  {
    world::Options opt = test::options();
    opt.net.jitter_frac = 0.0;
    MusicWorld w(opt);
    obs::Tracer tracer;
    obs::MetricsRegistry reg;
    tracer.set_registry(&reg);
    w.sim.set_tracer(&tracer);
    auto& c = w.client(0);
    bool ok = w.runner.run([&]() -> sim::Task<void> {
      CriticalSection cs(c, "k");
      CO_ASSERT_TRUE((co_await cs.enter()).ok());
      Session s = cs.session();
      for (int i = 0; i < 8; ++i) {
        // Built stepwise: GCC 12 mis-fires -Werror=restrict on
        // literal + to_string rvalue concats inside coroutine frames.
        std::string sub = "k/";
        sub += std::to_string(i);
        std::string val = "v";
        val += std::to_string(i);
        s.put(sub, Value(val));
      }
      auto st = co_await s.flush();
      CO_ASSERT_TRUE(st.ok());
      CO_ASSERT_EQ(s.results().size(), 8u);
      for (const auto& r : s.results()) CO_ASSERT_EQ(r.status, OpStatus::Ok);
      // The writes really landed: read one back through a second batch.
      Session s2 = cs.session();
      s2.get("k/3");
      CO_ASSERT_TRUE((co_await s2.flush()).ok());
      CO_ASSERT_EQ(s2.results().at(0).value.data, "v3");
      CO_ASSERT_TRUE((co_await cs.exit()).ok());
    });
    ASSERT_TRUE(ok);
    w.sim.set_tracer(nullptr);
    ASSERT_EQ(reg.counters().count("span.client.batch.rtts"), 1u);
    // Two flushes were traced: the 8-put batch and the 1-get batch, one
    // quorum round trip each.
    batched = reg.counters().at("span.client.batch.rtts").value;
    EXPECT_EQ(batched, 2u);
  }
  {
    world::Options opt = test::options();
    opt.net.jitter_frac = 0.0;
    MusicWorld w(opt);
    obs::Tracer tracer;
    obs::MetricsRegistry reg;
    tracer.set_registry(&reg);
    w.sim.set_tracer(&tracer);
    auto& c = w.client(0);
    bool ok = w.runner.run([&]() -> sim::Task<void> {
      CriticalSection cs(c, "k");
      CO_ASSERT_TRUE((co_await cs.enter()).ok());
      for (int i = 0; i < 8; ++i) {
        CO_ASSERT_TRUE((co_await cs.put(Value("v"))).ok());
      }
      CO_ASSERT_TRUE((co_await cs.exit()).ok());
    });
    ASSERT_TRUE(ok);
    w.sim.set_tracer(nullptr);
    unbatched = reg.counters().at("span.client.critical_put.rtts").value;
    EXPECT_EQ(unbatched, 8u);
  }
  EXPECT_LT(batched, unbatched);
}

// Program order is preserved across mixed rounds: a read after a write on
// the same key observes that write, within one batch.
TEST(Session, MixedRoundsPreserveProgramOrder) {
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    CriticalSection cs(c, "k");
    CO_ASSERT_TRUE((co_await cs.enter()).ok());
    Session s = cs.session();
    s.put(Value("a"));
    s.get();
    s.put(Value("b"));
    s.get();
    CO_ASSERT_TRUE((co_await s.flush()).ok());
    const auto& rs = s.results();
    CO_ASSERT_EQ(rs.size(), 4u);
    CO_ASSERT_EQ(rs[0].status, OpStatus::Ok);
    CO_ASSERT_EQ(rs[1].value.data, "a");
    CO_ASSERT_EQ(rs[2].status, OpStatus::Ok);
    CO_ASSERT_EQ(rs[3].value.data, "b");
    CO_ASSERT_TRUE((co_await cs.exit()).ok());
  });
  EXPECT_TRUE(ok);
}

// In MSCP/Lwt mode every batched put still runs a full LWT (4 RTTs): the
// batch saves wire requests but cannot coalesce conditional updates.
TEST(Session, LwtModeBatchPays4RttsPerPut) {
  world::Options opt = test::options();
  opt.net.jitter_frac = 0.0;
  opt.music.put_mode = PutMode::Lwt;
  MusicWorld w(opt);
  obs::Tracer tracer;
  obs::MetricsRegistry reg;
  tracer.set_registry(&reg);
  w.sim.set_tracer(&tracer);
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    CriticalSection cs(c, "k");
    CO_ASSERT_TRUE((co_await cs.enter()).ok());
    Session s = cs.session();
    s.put("k/0", Value("v"));
    s.put("k/1", Value("v"));
    CO_ASSERT_TRUE((co_await s.flush()).ok());
    CO_ASSERT_TRUE((co_await cs.exit()).ok());
  });
  ASSERT_TRUE(ok);
  w.sim.set_tracer(nullptr);
  EXPECT_EQ(reg.counters().at("span.client.batch.rtts").value, 8u);
}

TEST(Session, EmptyFlushIsNoOpAndSessionIsReusable) {
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    CriticalSection cs(c, "k");
    CO_ASSERT_TRUE((co_await cs.enter()).ok());
    Session s = cs.session();
    CO_ASSERT_EQ(s.pending(), 0u);
    CO_ASSERT_TRUE((co_await s.flush()).ok());  // nothing queued: Ok
    s.put(Value("x"));
    CO_ASSERT_EQ(s.pending(), 1u);
    CO_ASSERT_TRUE((co_await s.flush()).ok());
    CO_ASSERT_EQ(s.pending(), 0u);
    // Enqueueing after a flush starts a fresh batch.
    s.get();
    CO_ASSERT_EQ(s.pending(), 1u);
    CO_ASSERT_TRUE((co_await s.flush()).ok());
    CO_ASSERT_EQ(s.results().size(), 1u);
    CO_ASSERT_EQ(s.results().at(0).value.data, "x");
    CO_ASSERT_TRUE((co_await cs.exit()).ok());
  });
  EXPECT_TRUE(ok);
}

// A forcedRelease that lands while a batch is mid-flight: the rounds that
// executed before the preemption succeed, every later op fails with
// NotLockHolder, and the transition is monotone (Ok-prefix, failed-tail) —
// the replica aborts deterministically at the first round that sees a
// superseded lockRef.
TEST(Session, ForcedReleaseMidBatchFailsTheTail) {
  world::Options opt = test::options();
  opt.net.jitter_frac = 0.0;
  MusicWorld w(opt);
  constexpr int kPuts = 12;
  std::vector<BatchOpResult> rs;
  bool flushed = false;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto& a = w.client(0);
    auto& b = w.client(1);
    CriticalSection cs(a, "k");
    CO_ASSERT_TRUE((co_await cs.enter()).ok());
    // Enqueue a waiter so the forced release advances the head PAST a's
    // ref (a becomes superseded, not merely re-checkable).
    auto refb = co_await b.create_lock_ref("k");
    CO_ASSERT_TRUE(refb.ok());
    // Preempt a mid-batch: same-key puts execute as one round each, so a
    // forced release launched now lands while later rounds are in flight.
    sim::spawn(w.sim, [](MusicWorld& world, CriticalSection& held,
                         core::MusicClient& by) -> sim::Task<void> {
      co_await sim::sleep_for(world.sim, sim::ms(120));
      co_await by.forced_release("k", held.ref());
    }(w, cs, b));
    Session s = cs.session();
    for (int i = 0; i < kPuts; ++i) {
      std::string val = "w";
      val += std::to_string(i);
      s.put(Value(val));
    }
    auto st = co_await s.flush();
    rs = s.results();
    flushed = true;
    CO_ASSERT_EQ(st.status(), OpStatus::NotLockHolder);
    co_await cs.exit();  // releasing a superseded ref is a safe no-op
  });
  ASSERT_TRUE(ok);
  ASSERT_TRUE(flushed);
  ASSERT_EQ(rs.size(), static_cast<size_t>(kPuts));
  size_t first_fail = rs.size();
  for (size_t i = 0; i < rs.size(); ++i) {
    if (rs[i].status != OpStatus::Ok) {
      first_fail = i;
      break;
    }
  }
  ASSERT_LT(first_fail, rs.size()) << "forced release never landed";
  EXPECT_GT(first_fail, 0u) << "no round completed before the preemption";
  for (size_t i = first_fail; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].status, OpStatus::NotLockHolder) << "op " << i;
  }
}

// with_lock is now sugar over CriticalSection; its contract is unchanged.
TEST(WithLock, RunsBodyAndReleases) {
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto body = [&](LockRef ref) -> sim::Task<Status> {
      co_return co_await c.critical_put("k", ref, Value("via-with-lock"));
    };
    auto st = co_await c.with_lock("k", body);
    CO_ASSERT_TRUE(st.ok());
    // Lock is free again and the write is visible.
    CriticalSection cs(c, "k");
    CO_ASSERT_TRUE((co_await cs.enter()).ok());
    auto g = co_await cs.get();
    CO_ASSERT_TRUE(g.ok());
    CO_ASSERT_EQ(g.value().data, "via-with-lock");
    CO_ASSERT_TRUE((co_await cs.exit()).ok());
  });
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace music::core
