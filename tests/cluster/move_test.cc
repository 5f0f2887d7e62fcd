// Shard moves under nemesis faults: across 8 seeds, a shard is moved while
// a store replica of the source group is down and a client hammers keys in
// the moving shard.  The acceptance bar from the cluster design notes:
//   - zero ECF violations (lenient stale-grant mode, as every faulted
//     scenario cell runs),
//   - every in-flight op resolves Ok, retryable (Nack/Timeout) or
//     WrongShard — never an unexplained terminal status,
//   - rows quorum-acked before the move are readable, bit-for-bit, from
//     the destination group afterwards (no silent loss).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/client.h"
#include "cluster/cluster.h"
#include "cluster/world.h"
#include "sim/task.h"

namespace music::cluster {
namespace {

using test::ClusterWorld;

/// Delayed shard move, spawned alongside the workload.
sim::Task<void> delayed_move(ClusterWorld* w, int shard, int to,
                             sim::Duration delay, Status* out, bool* done) {
  co_await sim::sleep_for(w->sim, delay);
  *out = co_await w->cluster.move_shard(shard, to);
  *done = true;
}

/// One nemesis window: a store replica of group `g` is down while the move
/// copies rows (move rounds retry transient failures until it heals).
sim::Task<void> fault_window(ClusterWorld* w, int g) {
  co_await sim::sleep_for(w->sim, sim::ms(20));
  w->cluster.group(g).crash_store(0, true, /*amnesia=*/false);
  co_await sim::sleep_for(w->sim, sim::ms(250));
  w->cluster.group(g).crash_store(0, false, /*amnesia=*/false);
}

/// Statuses an op may legally end with while the shard is in flight.
bool acceptable(OpStatus s) {
  return s == OpStatus::Ok || is_retryable(s) || s == OpStatus::WrongShard;
}

/// Full critical section writing `val` to `key`; returns the final status
/// of the first step that failed (or Ok).
sim::Task<OpStatus> write_section(Client* c, Key key, Value val) {
  auto ref = co_await c->create_lock_ref(key);
  if (!ref.ok()) co_return ref.status();
  Status acq = co_await c->acquire_lock_blocking(key, ref.value());
  if (!acq.ok()) {
    co_await c->remove_lock_ref(key, ref.value());
    co_return acq.status();
  }
  Status put = co_await c->critical_put(key, ref.value(), std::move(val));
  co_await c->release_lock(key, ref.value());
  co_return put.status();
}

/// Keys from the `stem<i>` family that the current ring routes to `shard`.
std::vector<Key> keys_in_shard(const Cluster& cluster, const std::string& stem,
                               int shard, size_t want) {
  std::vector<Key> out;
  auto map = cluster.snapshot();
  for (int i = 0; out.size() < want && i < 10000; ++i) {
    Key k = stem + std::to_string(i);
    if (map->route(k) == shard) out.push_back(k);
  }
  return out;
}

TEST(ClusterMove, NoSilentLossUnderFaultsAcrossEightSeeds) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    ClusterWorld w(test::cluster_options(seed), 4);
    w.checker.set_lenient_stale_grants(true);  // faulted run, like run.cc

    int shard = w.cluster.snapshot()->route("keep0");
    int src = w.cluster.snapshot()->group_of(shard);
    int dst = (src + 1) % w.cluster.num_groups();
    std::vector<Key> keep = keys_in_shard(w.cluster, "keep", shard, 4);
    std::vector<Key> hot = keys_in_shard(w.cluster, "hot", shard, 3);
    ASSERT_EQ(keep.size(), 4u) << "seed " << seed;
    ASSERT_EQ(hot.size(), 3u) << "seed " << seed;

    auto& c = w.make_client(0);
    Status move_result = Status::Err(OpStatus::Timeout);
    bool move_done = false;
    std::vector<OpStatus> outcomes;

    bool ran = w.runner.run([&]() -> sim::Task<void> {
      // Quorum-ack one row per keep-key BEFORE any fault or move; these
      // exact bytes must survive the move.
      for (const Key& k : keep) {
        OpStatus st = co_await write_section(&c, k, Value("stable:" + k));
        CO_ASSERT_EQ(st, OpStatus::Ok);
      }

      sim::spawn(w.sim, fault_window(&w, src));
      sim::spawn(w.sim, delayed_move(&w, shard, dst, sim::ms(50),
                                     &move_result, &move_done));

      // Hammer the moving shard while the fault window and copy overlap.
      for (int i = 0; i < 12; ++i) {
        const Key& k = hot[static_cast<size_t>(i) % hot.size()];
        OpStatus st = co_await write_section(
            &c, k, Value("w:" + std::to_string(i)));
        outcomes.push_back(st);
      }

      while (!move_done) co_await sim::sleep_for(w.sim, sim::ms(5));

      // Post-move: quorum-acked pre-move rows read back exactly from the
      // destination group.
      for (const Key& k : keep) {
        auto ref = co_await c.create_lock_ref(k);
        CO_ASSERT_TRUE(ref.ok());
        CO_ASSERT_TRUE(
            (co_await c.acquire_lock_blocking(k, ref.value())).ok());
        auto got = co_await c.critical_get(k, ref.value());
        CO_ASSERT_TRUE(got.ok());
        CO_ASSERT_EQ(got.value().data, "stable:" + k);
        CO_ASSERT_TRUE((co_await c.release_lock(k, ref.value())).ok());
      }
    });
    ASSERT_TRUE(ran) << "seed " << seed;
    EXPECT_TRUE(move_result.ok())
        << "seed " << seed << ": " << to_string(move_result.status());
    EXPECT_EQ(w.cluster.snapshot()->group_of(shard), dst) << "seed " << seed;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      EXPECT_TRUE(acceptable(outcomes[i]))
          << "seed " << seed << " op " << i << ": "
          << to_string(outcomes[i]);
    }
    EXPECT_TRUE(w.checker.ok()) << "seed " << seed << "\n"
                                << w.checker.report();
  }
}

TEST(ClusterMove, ConcurrentMoveOfTheSameShardConflicts) {
  ClusterWorld w2(test::cluster_options(), 2);
  Status first = Status::Err(OpStatus::Timeout);
  bool first_done = false;
  bool ran = w2.runner.run([&]() -> sim::Task<void> {
    // Pin the first mover in its drain loop by holding an admitted op
    // open; otherwise an empty shard moves instantaneously.
    CO_ASSERT_TRUE(w2.cluster.admit(0, w2.cluster.snapshot()->epoch()).ok());
    sim::spawn(w2.sim, delayed_move(&w2, 0, 1, sim::ms(0), &first,
                                    &first_done));
    co_await sim::sleep_for(w2.sim, sim::ms(5));
    // Second mover loses while the first holds the shard frozen.
    Status second = co_await w2.cluster.move_shard(0, 1);
    CO_ASSERT_EQ(second.status(), OpStatus::Conflict);
    w2.cluster.complete(0);
    while (!first_done) co_await sim::sleep_for(w2.sim, sim::ms(5));
    CO_ASSERT_TRUE(first.ok());
  });
  ASSERT_TRUE(ran);
}

TEST(ClusterMove, MoveToTheCurrentOwnerIsANoOp) {
  ClusterWorld w(test::cluster_options(), 2);
  int owner = w.cluster.snapshot()->group_of(0);
  uint64_t epoch_before = w.cluster.snapshot()->epoch();
  bool ran = w.runner.run([&]() -> sim::Task<void> {
    CO_ASSERT_TRUE((co_await w.cluster.move_shard(0, owner)).ok());
  });
  ASSERT_TRUE(ran);
  EXPECT_EQ(w.cluster.snapshot()->epoch(), epoch_before);
  EXPECT_EQ(w.cluster.stats().moves, 0u);
}

TEST(ClusterMove, RejectsOutOfRangeArguments) {
  ClusterWorld w(test::cluster_options(), 2);
  bool ran = w.runner.run([&]() -> sim::Task<void> {
    CO_ASSERT_EQ((co_await w.cluster.move_shard(-1, 0)).status(),
                 OpStatus::Nack);
    CO_ASSERT_EQ((co_await w.cluster.move_shard(99, 0)).status(),
                 OpStatus::Nack);
    CO_ASSERT_EQ((co_await w.cluster.move_shard(0, 99)).status(),
                 OpStatus::Nack);
  });
  ASSERT_TRUE(ran);
}

}  // namespace
}  // namespace music::cluster
