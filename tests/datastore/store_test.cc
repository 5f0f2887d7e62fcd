// Data-store tests: last-write-wins, consistency levels, read repair,
// placement, scans.
#include "datastore/store.h"

#include <gtest/gtest.h>

#include <set>

#include "util/world.h"

namespace music::ds {
namespace {

using test::MusicWorld;

TEST(ApplyWrite, LastWriteWinsByTimestamp) {
  MusicWorld w(test::store_options());
  auto& r = w.store.replica(0);
  EXPECT_TRUE(r.apply_write("k", Cell(Value("a"), 10)));
  EXPECT_FALSE(r.apply_write("k", Cell(Value("b"), 5)));    // older: rejected
  EXPECT_FALSE(r.apply_write("k", Cell(Value("c"), 10)));   // tie: rejected
  EXPECT_TRUE(r.apply_write("k", Cell(Value("d"), 11)));
  EXPECT_EQ(r.local_read("k")->value.data, "d");
}

TEST(QuorumOps, WriteThenReadReturnsValue) {
  MusicWorld w(test::store_options());
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto st = co_await w.store.replica_at_site(0).put(
        "k", Cell(Value("v1"), 100), Consistency::Quorum);
    EXPECT_TRUE(st.ok());
    auto g = co_await w.store.replica_at_site(1).get("k", Consistency::Quorum);
    CO_ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value().value.data, "v1");
    EXPECT_EQ(g.value().ts, 100);
  });
  ASSERT_TRUE(ok);
}

TEST(QuorumOps, MissingKeyIsNotFound) {
  MusicWorld w(test::store_options());
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto g = co_await w.store.replica(0).get("nope", Consistency::Quorum);
    EXPECT_EQ(g.status(), OpStatus::NotFound);
  });
  ASSERT_TRUE(ok);
}

TEST(QuorumOps, StaleTimestampDoesNotOverwrite) {
  MusicWorld w(test::store_options());
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await w.store.replica(0).put("k", Cell(Value("new"), 100),
                                    Consistency::Quorum);
    co_await w.store.replica(1).put("k", Cell(Value("old"), 50),
                                    Consistency::Quorum);
    auto g = co_await w.store.replica(2).get("k", Consistency::Quorum);
    CO_ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value().value.data, "new");
  });
  ASSERT_TRUE(ok);
}

TEST(QuorumOps, WritesEventuallyReachAllReplicas) {
  MusicWorld w(test::store_options());
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    co_await w.store.replica(0).put("k", Cell(Value("v"), 1),
                                    Consistency::Quorum);
    co_await sim::sleep_for(w.sim, sim::sec(1));  // let the fan-out land
    co_return;
  });
  ASSERT_TRUE(ok);
  for (int i = 0; i < 3; ++i) {
    auto c = w.store.replica(i).local_read("k");
    ASSERT_TRUE(c.has_value()) << "replica " << i;
    EXPECT_EQ(c->value.data, "v");
  }
}

TEST(ConsistencyOne, LocalReadCanBeStale) {
  // CL::One reads the local replica: immediately after a remote quorum
  // write it may legitimately miss the value — eventual consistency.
  MusicWorld w(test::store_options());
  bool saw_stale = false;
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    // Write coordinated far away (site 2); read at site 0 immediately.
    co_await w.store.replica_at_site(2).put("k", Cell(Value("x"), 1),
                                            Consistency::One);
    auto g = co_await w.store.replica_at_site(0).get("k", Consistency::One);
    if (!g.ok()) saw_stale = true;
    co_return;
  });
  ASSERT_TRUE(ok);
  EXPECT_TRUE(saw_stale);
}

TEST(ReadRepair, QuorumReadHealsStaleReplica) {
  MusicWorld w(test::store_options());
  // Manually seed divergent replicas (replica 0 stale).
  w.store.replica(0).apply_write("k", Cell(Value("old"), 1));
  w.store.replica(1).apply_write("k", Cell(Value("new"), 2));
  w.store.replica(2).apply_write("k", Cell(Value("new"), 2));
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto g = co_await w.store.replica(0).get("k", Consistency::Quorum);
    CO_ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value().value.data, "new");
    co_await sim::sleep_for(w.sim, sim::sec(1));  // repair propagates
  });
  ASSERT_TRUE(ok);
  EXPECT_EQ(w.store.replica(0).local_read("k")->value.data, "new");
}

TEST(Placement, ThreeNodeClusterStoresEverywhere) {
  MusicWorld w(test::store_options());
  auto p = w.store.placement("anything");
  EXPECT_EQ(p.size(), 3u);
  std::set<sim::NodeId> uniq(p.begin(), p.end());
  EXPECT_EQ(uniq.size(), 3u);
}

TEST(Placement, NineNodeClusterKeepsOneReplicaPerSite) {
  MusicWorld w(test::store_options(1, 9));
  for (int i = 0; i < 50; ++i) {
    auto p = w.store.placement("key" + std::to_string(i));
    ASSERT_EQ(p.size(), 3u);
    std::set<int> sites;
    for (auto n : p) sites.insert(w.net.site_of(n));
    EXPECT_EQ(sites.size(), 3u) << "key" << i << " not spread across sites";
  }
}

TEST(Placement, KeysShardAcrossNineNodes) {
  MusicWorld w(test::store_options(1, 9));
  std::set<sim::NodeId> used;
  for (int i = 0; i < 200; ++i) {
    for (auto n : w.store.placement("key" + std::to_string(i))) used.insert(n);
  }
  EXPECT_EQ(used.size(), 9u);  // all nodes carry some keys
}

TEST(Scan, LocalPrefixScanFindsKeys) {
  MusicWorld w(test::store_options());
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await w.store.replica(0).put("job:" + std::to_string(i),
                                      Cell(Value("x"), i + 1),
                                      Consistency::Quorum);
    }
    co_await w.store.replica(0).put("other", Cell(Value("y"), 1),
                                    Consistency::Quorum);
    co_await sim::sleep_for(w.sim, sim::sec(1));
    auto keys = co_await w.store.replica(1).scan_local_keys("job:");
    CO_ASSERT_TRUE(keys.ok());
    EXPECT_EQ(keys.value().size(), 5u);
    EXPECT_EQ(keys.value().front(), "job:0");
  });
  ASSERT_TRUE(ok);
}

TEST(Failure, QuorumSurvivesOneReplicaDown) {
  MusicWorld w(test::store_options());
  w.store.replica(2).set_down(true);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto st = co_await w.store.replica(0).put("k", Cell(Value("v"), 1),
                                              Consistency::Quorum);
    EXPECT_TRUE(st.ok());
    auto g = co_await w.store.replica(1).get("k", Consistency::Quorum);
    EXPECT_TRUE(g.ok());
  });
  ASSERT_TRUE(ok);
}

TEST(Failure, QuorumFailsWithTwoReplicasDown) {
  MusicWorld w(test::store_options());
  w.store.replica(1).set_down(true);
  w.store.replica(2).set_down(true);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto st = co_await w.store.replica(0).put("k", Cell(Value("v"), 1),
                                              Consistency::Quorum);
    EXPECT_EQ(st.status(), OpStatus::Timeout);
    // CL::One still succeeds on the lone survivor.
    auto one = co_await w.store.replica(0).put("k", Cell(Value("v"), 1),
                                               Consistency::One);
    EXPECT_TRUE(one.ok());
  });
  ASSERT_TRUE(ok);
}

TEST(HintedHandoff, DownReplicaCatchesUpAfterRestart) {
  MusicWorld w(test::store_options());
  w.store.replica(2).set_down(true);
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto st = co_await w.store.replica(0).put("k", Cell(Value("v"), 7),
                                              Consistency::Quorum);
    EXPECT_TRUE(st.ok());
    co_await sim::sleep_for(w.sim, sim::sec(2));
    w.store.replica(2).set_down(false);
    co_await sim::sleep_for(w.sim, sim::sec(2));  // hints replay
  });
  ASSERT_TRUE(ok);
  auto c = w.store.replica(2).local_read("k");
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->value.data, "v");
}

TEST(Partition, MinorityCoordinatorTimesOutThenHeals) {
  MusicWorld w(test::store_options());
  w.net.partition_sites({0}, {1, 2});
  bool ok = w.runner.run([&]() -> sim::Task<void> {
    auto st = co_await w.store.replica_at_site(0).put(
        "k", Cell(Value("v"), 1), Consistency::Quorum);
    EXPECT_EQ(st.status(), OpStatus::Timeout);  // only itself reachable
    // The majority side still works.
    auto st2 = co_await w.store.replica_at_site(1).put(
        "k", Cell(Value("w"), 2), Consistency::Quorum);
    EXPECT_TRUE(st2.ok());
    w.net.heal_partition();
    auto g = co_await w.store.replica_at_site(0).get("k", Consistency::Quorum);
    CO_ASSERT_TRUE(g.ok());
    EXPECT_EQ(g.value().value.data, "w");
  });
  ASSERT_TRUE(ok);
}

}  // namespace
}  // namespace music::ds
