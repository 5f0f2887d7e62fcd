// Edge cases of the data store and LWT machinery: tie-breaking, partial
// outages mid-operation, hint accumulation, consistency-level corner cases.
#include <gtest/gtest.h>

#include "datastore/store.h"
#include "util/world.h"

namespace music::ds {
namespace {

using test::MusicWorld;

TEST(StoreEdge, TimestampTieKeepsFirstWriter) {
  MusicWorld w(test::store_options());
  auto& r = w.store.replica(0);
  EXPECT_TRUE(r.apply_write("k", Cell(Value("first"), 100)));
  EXPECT_FALSE(r.apply_write("k", Cell(Value("second"), 100)));
  EXPECT_EQ(r.local_read("k")->value.data, "first");
}

TEST(StoreEdge, ConsistencyAllNeedsEveryReplica) {
  MusicWorld w(test::store_options());
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto st = co_await w.store.replica(0).put("k", Cell(Value("v"), 1),
                                              Consistency::All);
    EXPECT_TRUE(st.ok());
    w.store.replica(2).set_down(true);
    auto st2 = co_await w.store.replica(0).put("k", Cell(Value("w"), 2),
                                               Consistency::All);
    EXPECT_EQ(st2.status(), OpStatus::Timeout);  // one replica missing
    auto q = co_await w.store.replica(0).put("k", Cell(Value("w"), 2),
                                             Consistency::Quorum);
    EXPECT_TRUE(q.ok());  // quorum still fine
  });
  ASSERT_TRUE(ok);
}

TEST(StoreEdge, ReadAtAllLevelsAgreesAfterSettling) {
  MusicWorld w(test::store_options());
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await w.store.replica(0).put("k", Cell(Value("v"), 5),
                                    Consistency::All);
    co_await sim::sleep_for(w.sim, sim::sec(1));
    for (auto level : {Consistency::One, Consistency::Quorum, Consistency::All}) {
      auto g = co_await w.store.replica(1).get("k", level);
      CO_ASSERT_TRUE(g.ok());
      EXPECT_EQ(g.value().value.data, "v");
    }
  });
  ASSERT_TRUE(ok);
}

TEST(StoreEdge, CoordinatorCrashMidWriteLosesNothingCommitted) {
  // A coordinator dies after its write reached a quorum: the value stays.
  MusicWorld w(test::store_options());
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto st = co_await w.store.replica(0).put("k", Cell(Value("v"), 1),
                                              Consistency::Quorum);
    CO_ASSERT_TRUE(st.ok());
    w.store.replica(0).set_down(true);
    auto g = co_await w.store.replica(1).get("k", Consistency::Quorum);
    CO_ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value().value.data, "v");
  });
  ASSERT_TRUE(ok);
}

TEST(StoreEdge, LwtOnDistinctKeysDoesNotContend) {
  // Paxos state is per key: concurrent LWTs on different keys finish in
  // first-attempt time (no ballot conflicts).
  MusicWorld w(test::store_options());
  int done = 0;
  sim::Time worst = 0;
  for (int i = 0; i < 4; ++i) {
    sim::spawn(w.sim, [](MusicWorld& world, int ki, int& d, sim::Time& wmax)
                          -> sim::Task<void> {
      ds::LwtUpdate set = [](const std::optional<Cell>&) {
        return LwtDecision(true, Value("x"), std::nullopt);
      };
      sim::Time t0 = world.sim.now();
      auto r = co_await world.store.replica_at_site(ki % 3)
                   .lwt("key" + std::to_string(ki), set);
      EXPECT_TRUE(r.ok());
      wmax = std::max(wmax, world.sim.now() - t0);
      ++d;
    }(w, i, done, worst));
  }
  w.sim.run_until(sim::sec(30));
  ASSERT_EQ(done, 4);
  EXPECT_LT(worst, sim::ms(300));  // ~4 RTTs, no retry rounds
}

TEST(StoreEdge, LwtSurvivesReplicaCrashMidProtocol) {
  MusicWorld w(test::store_options());
  // Crash a replica while the LWT's rounds are in flight.
  w.sim.schedule(sim::ms(30), [&] { w.store.replica(2).set_down(true); });
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    ds::LwtUpdate set = [](const std::optional<Cell>&) {
      return LwtDecision(true, Value("survived"), std::nullopt);
    };
    auto r = co_await w.store.replica_at_site(0).lwt("k", set);
    CO_ASSERT_TRUE(r.ok());
    auto g = co_await w.store.replica_at_site(1).get("k", Consistency::Quorum);
    CO_ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value().value.data, "survived");
  }, sim::sec(120));
  ASSERT_TRUE(ok);
}

TEST(StoreEdge, HintsAccumulateAndDrainInOrderOfReachability) {
  MusicWorld w(test::store_options());
  w.store.replica(2).set_down(true);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      // Built stepwise: GCC 12 mis-fires -Werror=restrict on literal +
      // to_string rvalue concats inside coroutine frames.
      std::string k = "k";
      k += std::to_string(i);
      co_await w.store.replica(0).put(k, Cell(Value("v"), 1),
                                      Consistency::Quorum);
    }
    co_await sim::sleep_for(w.sim, sim::sec(1));
    w.store.replica(2).set_down(false);
    co_await sim::sleep_for(w.sim, sim::sec(3));
  });
  ASSERT_TRUE(ok);
  EXPECT_EQ(w.store.replica(2).table_size(), 10u);
}

TEST(StoreEdge, DroppyNetworkStillConvergesViaRetries) {
  // 5% message loss: quorum ops may time out individually; the caller's
  // retry loop rides it out and the store converges.
  sim::Simulation s(5);
  sim::NetworkConfig nc;
  nc.profile = sim::LatencyProfile::profile_lus();
  nc.drop_prob = 0.05;
  sim::Network net(s, nc);
  StoreCluster store(s, net, StoreConfig{}, {0, 1, 2});
  int committed = 0;
  sim::spawn(s, [](sim::Simulation& /*sm*/, StoreCluster& st, int& n) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      Status w = Status::Err(OpStatus::Timeout);
      while (!w.ok()) {
        w = co_await st.replica_at_site(i % 3).put(
            "k", ds::Cell(Value(std::to_string(i)), i + 1),
            Consistency::Quorum);
      }
      ++n;
    }
  }(s, store, committed));
  s.run_until(sim::sec(600));
  ASSERT_EQ(committed, 20);
  bool ok = false;
  sim::spawn(s, [](StoreCluster& st, bool& done) -> sim::Task<void> {
    Result<Cell> g = Result<Cell>::Err(OpStatus::Timeout);
    while (!g.ok()) {
      g = co_await st.replica_at_site(0).get("k", Consistency::Quorum);
    }
    EXPECT_EQ(g.value().value.data, "19");
    done = true;
  }(store, ok));
  s.run_until(sim::sec(700));
  EXPECT_TRUE(ok);
}

TEST(StoreEdge, ScanFindsNothingForUnknownPrefix) {
  MusicWorld w(test::store_options());
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto keys = co_await w.store.replica(0).scan_local_keys("ghost:");
    CO_ASSERT_TRUE(keys.ok());
    EXPECT_TRUE(keys.value().empty());
  });
  ASSERT_TRUE(ok);
}

}  // namespace
}  // namespace music::ds
