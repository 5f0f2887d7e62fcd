// MUSIC core semantics in failure-free scenarios: Listing 1, Table I
// operations, non-ECF conveniences, latency shape of each operation.
#include <gtest/gtest.h>

#include "core/client.h"
#include "core/session.h"
#include "util/world.h"

namespace music::core {
namespace {

using test::MusicWorld;

TEST(MusicBasic, Listing1EndToEnd) {
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    // lockRef = createLockRef(key);
    auto ref = co_await c.create_lock_ref("key");
    CO_ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref.value(), 1);
    // while (acquireLock(key, lockRef) != true) skip;
    auto acq = co_await c.acquire_lock_blocking("key", ref.value());
    CO_ASSERT_TRUE(acq.ok());
    // v1 = criticalGet(key, lockRef);  — no value yet
    auto v1 = co_await c.critical_get("key", ref.value());
    EXPECT_EQ(v1.status(), OpStatus::NotFound);
    // criticalPut(key, lockRef, v2);
    auto put = co_await c.critical_put("key", ref.value(), Value("42"));
    CO_ASSERT_TRUE(put.ok());
    // v2 is guaranteed to be the true value of the key.
    auto v2 = co_await c.critical_get("key", ref.value());
    CO_ASSERT_TRUE(v2.ok());
    EXPECT_EQ(v2.value().data, "42");
    // releaseLock(key, lockRef);
    auto rel = co_await c.release_lock("key", ref.value());
    EXPECT_TRUE(rel.ok());
  });
  ASSERT_TRUE(ok);
  EXPECT_EQ(w.replica(0).stats().critical_puts +
                w.replica(1).stats().critical_puts +
                w.replica(2).stats().critical_puts,
            1u);
}

TEST(MusicBasic, ReadModifyWriteAcrossCriticalSections) {
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      auto body = [&](LockRef ref) -> sim::Task<Status> {
        auto g = co_await c.critical_get("cnt", ref);
        int v = g.ok() ? std::stoi(g.value().data) : 0;
        co_return co_await c.critical_put("cnt", ref, Value(std::to_string(v + 1)));
      };
      auto st = co_await c.with_lock("cnt", body);
      CO_ASSERT_TRUE(st.ok());
    }
    auto final_v = co_await w.replica(0).get_quorum_unlocked("cnt");
    CO_ASSERT_TRUE(final_v.ok());
    EXPECT_EQ(final_v.value().data, "3");
  });
  ASSERT_TRUE(ok);
}

TEST(MusicBasic, LockRefsIncreasePerKeyAndAreIndependentAcrossKeys) {
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto a1 = co_await c.create_lock_ref("a");
    auto a2 = co_await c.create_lock_ref("a");
    auto b1 = co_await c.create_lock_ref("b");
    EXPECT_EQ(a1.value(), 1);
    EXPECT_EQ(a2.value(), 2);
    EXPECT_EQ(b1.value(), 1);
  });
  ASSERT_TRUE(ok);
}

TEST(MusicBasic, CriticalDeleteHidesKeyFromReads) {
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto body = [&](LockRef ref) -> sim::Task<Status> {
      co_await c.critical_put("k", ref, Value("x"));
      auto st = co_await c.critical_delete("k", ref);
      EXPECT_TRUE(st.ok());
      auto g = co_await c.critical_get("k", ref);
      EXPECT_EQ(g.status(), OpStatus::NotFound);
      co_return Status::Ok();
    };
    auto st = co_await c.with_lock("k", body);
    EXPECT_TRUE(st.ok());
    auto g = co_await c.get("k");
    EXPECT_EQ(g.status(), OpStatus::NotFound);
  });
  ASSERT_TRUE(ok);
}

TEST(MusicBasic, EventualPutGetWithoutLocks) {
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto st = co_await c.put("cfg", Value("hello"));
    CO_ASSERT_TRUE(st.ok());
    co_await sim::sleep_for(w.sim, sim::sec(1));  // eventual propagation
    auto g = co_await c.get("cfg");
    CO_ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value().data, "hello");
  });
  ASSERT_TRUE(ok);
}

TEST(MusicBasic, CriticalPutOverridesInitializationPut) {
  // put() is allowed as initialization before the first critical section;
  // criticalPuts always outrank it (lockRef-major timestamps).
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await c.put("job", Value("PENDING"));
    auto body = [&](LockRef ref) -> sim::Task<Status> {
      auto g = co_await c.critical_get("job", ref);
      EXPECT_EQ(g.ok() ? g.value().data : "?", "PENDING");
      co_return co_await c.critical_put("job", ref, Value("RUNNING"));
    };
    co_await c.with_lock("job", body);
    // A later plain put must NOT override critical state.
    co_await c.put("job", Value("SNEAKY"));
    co_await sim::sleep_for(w.sim, sim::sec(1));
    auto v = co_await w.replica(1).get_quorum_unlocked("job");
    CO_ASSERT_TRUE(v.ok());
    EXPECT_EQ(v.value().data, "RUNNING");
  });
  ASSERT_TRUE(ok);
}

TEST(MusicBasic, GetAllKeysListsByPrefix) {
  MusicWorld w;
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 4; ++i) {
      co_await c.put("job-" + std::to_string(i), Value("d"));
    }
    co_await c.put("user-1", Value("u"));
    co_await sim::sleep_for(w.sim, sim::sec(1));
    auto keys = co_await c.get_all_keys("job-");
    CO_ASSERT_TRUE(keys.ok());
    EXPECT_EQ(keys.value().size(), 4u);
    for (const auto& k : keys.value()) {
      EXPECT_EQ(k.rfind("job-", 0), 0u);
    }
  });
  ASSERT_TRUE(ok);
}

TEST(MusicLatency, OperationCostsMatchFig5bShape) {
  // Fig. 5(b) for lUs: createLockRef/releaseLock ~4 RTTs (219-230ms); the
  // acquire grant ~1 quorum RTT (~55ms); criticalPut ~1 quorum RTT (~93ms
  // measured there); local peek sub-millisecond.
  MusicWorld w;
  auto& c = w.client(0);  // site 0 (Ohio): nearest quorum peer 53.79ms RTT
  sim::Time t_create = 0, t_acquire = 0, t_put = 0, t_release = 0;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    sim::Time t0 = w.sim.now();
    auto ref = co_await c.create_lock_ref("k");
    t_create = w.sim.now() - t0;
    CO_ASSERT_TRUE(ref.ok());

    t0 = w.sim.now();
    auto acq = co_await c.acquire_lock_blocking("k", ref.value());
    t_acquire = w.sim.now() - t0;
    CO_ASSERT_TRUE(acq.ok());

    t0 = w.sim.now();
    co_await c.critical_put("k", ref.value(), Value("v"));
    t_put = w.sim.now() - t0;

    t0 = w.sim.now();
    co_await c.release_lock("k", ref.value());
    t_release = w.sim.now() - t0;
  });
  ASSERT_TRUE(ok);
  // Consensus ops: ~4 x 54ms.
  EXPECT_GT(t_create, sim::ms(180));
  EXPECT_LT(t_create, sim::ms(280));
  EXPECT_GT(t_release, sim::ms(180));
  EXPECT_LT(t_release, sim::ms(280));
  // Grant: one synchFlag quorum read (+ the startTime write): ~54-60ms.
  EXPECT_GT(t_acquire, sim::ms(40));
  EXPECT_LT(t_acquire, sim::ms(120));
  // criticalPut: one quorum write.
  EXPECT_GT(t_put, sim::ms(40));
  EXPECT_LT(t_put, sim::ms(90));
  // Amortization (§X-B4): lock overhead dominates a batch-1 section.
  EXPECT_GT(t_create + t_release, 4 * t_put);
}

TEST(MusicBasic, WorksAcrossAllTable2Profiles) {
  for (auto& profile : sim::LatencyProfile::table2()) {
    world::Options opt = test::options();
    opt.net.profile = profile;
    MusicWorld w(opt);
    auto& c = w.client(0);
    bool ok = w.runner.run([&]() -> sim::Task<void> {
      auto body = [&](LockRef ref) -> sim::Task<Status> {
        co_return co_await c.critical_put("k", ref, Value("v"));
      };
      auto st = co_await c.with_lock("k", body);
      EXPECT_TRUE(st.ok()) << profile.name;
    });
    ASSERT_TRUE(ok) << profile.name;
  }
}

TEST(MusicBasic, NineNodeShardedClusterWorks) {
  world::Options opt = test::options();
  opt.store_nodes = 9;
  MusicWorld w(opt);
  auto& c = w.client(0);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      Key key = "key" + std::to_string(i);
      auto body = [&](LockRef ref) -> sim::Task<Status> {
        co_return co_await c.critical_put(key, ref, Value("v"));
      };
      auto st = co_await c.with_lock(key, body);
      EXPECT_TRUE(st.ok()) << key;
    }
  });
  ASSERT_TRUE(ok);
}

}  // namespace
}  // namespace music::core
