// Recipe tests: atomic counter/map/queue and leader election over MUSIC.
#include "recipes/recipes.h"

#include <gtest/gtest.h>

#include "util/world.h"

namespace music::recipes {
namespace {

using test::MusicWorld;

TEST(AtomicCounter, AddAndGet) {
  MusicWorld w;
  AtomicCounter c(w.client(0), "cnt");
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto v1 = co_await c.add(5);
    CO_ASSERT_TRUE(v1.ok());
    EXPECT_EQ(v1.value(), 5);
    auto v2 = co_await c.add(-2);
    CO_ASSERT_TRUE(v2.ok());
    EXPECT_EQ(v2.value(), 3);
    auto g = co_await c.get();
    CO_ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value(), 3);
  });
  ASSERT_TRUE(ok);
}

TEST(AtomicCounter, ConcurrentAddsNeverLoseIncrements) {
  MusicWorld w;
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    sim::spawn(w.sim, [](MusicWorld& world, int ci, int& d) -> sim::Task<void> {
      AtomicCounter c(world.client(static_cast<size_t>(ci)), "shared");
      for (int k = 0; k < 4; ++k) {
        auto r = co_await c.add(1);
        EXPECT_TRUE(r.ok());
      }
      ++d;
    }(w, i, done));
  }
  w.sim.run_until(sim::sec(600));
  ASSERT_EQ(done, 3);
  AtomicCounter c(w.client(0), "shared");
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto g = co_await c.get();
    CO_ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value(), 12);  // exactly: MUSIC's lock serializes the RMWs
  });
  ASSERT_TRUE(ok);
}

TEST(AtomicCounter, CompareAndSet) {
  MusicWorld w;
  AtomicCounter c(w.client(0), "cas");
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto r1 = co_await c.compare_and_set(0, 10);
    CO_ASSERT_TRUE(r1.ok());
    EXPECT_TRUE(r1.value().first);
    auto r2 = co_await c.compare_and_set(0, 99);  // stale expectation
    CO_ASSERT_TRUE(r2.ok());
    EXPECT_FALSE(r2.value().first);
    EXPECT_EQ(r2.value().second, 10);
  });
  ASSERT_TRUE(ok);
}

TEST(AtomicMapCodec, RoundTripsWithEscaping) {
  std::vector<std::pair<std::string, std::string>> kvs{
      {"plain", "value"},
      {"with=eq", "and\nnewline"},
      {"pct%", "%%"},
      {"", "empty-key"},
  };
  auto decoded = AtomicMap::decode(AtomicMap::encode(kvs));
  EXPECT_EQ(decoded, kvs);
}

TEST(AtomicMap, PutGetEraseSize) {
  MusicWorld w;
  AtomicMap m(w.client(0), "map");
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await m.put_field("name", "alice");
    co_await m.put_field("role", "admin");
    auto g = co_await m.get_field("name");
    CO_ASSERT_TRUE(g.ok());
    CO_ASSERT_TRUE(g.value().has_value());
    EXPECT_EQ(*g.value(), "alice");
    auto sz = co_await m.size();
    CO_ASSERT_TRUE(sz.ok());
    EXPECT_EQ(sz.value(), 2u);
    co_await m.put_field("name", "bob");  // overwrite
    auto g2 = co_await m.get_field("name");
    EXPECT_EQ(*g2.value(), "bob");
    co_await m.erase_field("role");
    auto g3 = co_await m.get_field("role");
    CO_ASSERT_TRUE(g3.ok());
    EXPECT_FALSE(g3.value().has_value());
  });
  ASSERT_TRUE(ok);
}

TEST(AtomicMap, UpdateFieldIsAtomicRmw) {
  MusicWorld w;
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    sim::spawn(w.sim, [](MusicWorld& world, int ci, int& d) -> sim::Task<void> {
      AtomicMap m(world.client(static_cast<size_t>(ci)), "stats");
      for (int k = 0; k < 3; ++k) {
        auto inc = [](const std::optional<std::string>& old) {
          return std::to_string((old ? std::stoi(*old) : 0) + 1);
        };
        auto st = co_await m.update_field("hits", inc);
        EXPECT_TRUE(st.ok());
      }
      ++d;
    }(w, i, done));
  }
  w.sim.run_until(sim::sec(600));
  ASSERT_EQ(done, 2);
  AtomicMap m(w.client(2), "stats");
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto g = co_await m.get_field("hits");
    CO_ASSERT_TRUE(g.ok());
    CO_ASSERT_TRUE(g.value().has_value());
    EXPECT_EQ(*g.value(), "6");
  });
  ASSERT_TRUE(ok);
}

TEST(DistributedQueue, FifoAcrossSites) {
  MusicWorld w;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    DistributedQueue q0(w.client(0), "q");
    DistributedQueue q1(w.client(1), "q");
    co_await q0.push("first");
    co_await q1.push("second");
    co_await q0.push("third");
    auto sz = co_await q1.size();
    CO_ASSERT_TRUE(sz.ok());
    EXPECT_EQ(sz.value(), 3u);
    auto a = co_await q1.pop();
    auto b = co_await q0.pop();
    auto cpop = co_await q1.pop();
    CO_ASSERT_TRUE(a.ok());
    CO_ASSERT_TRUE(b.ok());
    CO_ASSERT_TRUE(cpop.ok());
    EXPECT_EQ(a.value(), "first");
    EXPECT_EQ(b.value(), "second");
    EXPECT_EQ(cpop.value(), "third");
    auto empty = co_await q0.pop();
    EXPECT_EQ(empty.status(), OpStatus::NotFound);
  });
  ASSERT_TRUE(ok);
}

TEST(LeaderElection, SingleLeaderAtATime) {
  MusicWorld w;
  LeaderElection e0(w.client(0), "svc", "node0");
  LeaderElection e1(w.client(1), "svc", "node1");
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto st = co_await e0.campaign();
    CO_ASSERT_TRUE(st.ok());
    auto lead = co_await e0.am_leader();
    CO_ASSERT_TRUE(lead.ok());
    EXPECT_TRUE(lead.value());
    auto who = co_await e1.current_leader();
    CO_ASSERT_TRUE(who.ok());
    EXPECT_EQ(who.value(), "node0");
    // node0 resigns; node1 wins.
    co_await e0.resign();
    auto st1 = co_await e1.campaign();
    CO_ASSERT_TRUE(st1.ok());
    auto lead1 = co_await e1.am_leader();
    EXPECT_TRUE(lead1.ok() && lead1.value());
    auto lead0 = co_await e0.am_leader();
    EXPECT_TRUE(lead0.ok());
    EXPECT_FALSE(lead0.value());
    co_await e1.resign();
  });
  ASSERT_TRUE(ok);
}

TEST(LeaderElection, DeadLeaderIsSupersededViaFailureDetector) {
  world::Options opt = test::options();
  opt.music.t_max_cs = sim::sec(6);  // leadership "lease": the T bound
  opt.music.fd_interval = sim::sec(1);
  MusicWorld w(opt);
  w.replica(0).start_failure_detector();
  LeaderElection e0(w.client(0), "svc", "node0");
  LeaderElection e1(w.client(1), "svc", "node1");
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await e0.campaign();
    // node0 dies silently; node1 campaigns and must eventually win.
    auto st = co_await e1.campaign();
    CO_ASSERT_TRUE(st.ok());
    auto old_lead = co_await e0.am_leader();
    CO_ASSERT_TRUE(old_lead.ok());
    EXPECT_FALSE(old_lead.value());  // node0 was preempted
    co_await e1.resign();
  }, sim::sec(300));
  ASSERT_TRUE(ok);
}

}  // namespace
}  // namespace music::recipes
