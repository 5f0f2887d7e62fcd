// The world builder's group layout: node ids and sites of every role (which
// fix every seeded run), and the fault wiring the nemesis drives — a site
// restart must take down the same replicas in a single-group world and in
// every group of a sharded one.
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>

#include "sim/network.h"
#include "world/world.h"

namespace music {
namespace {

/// Expects `grp`'s roles at consecutive node ids from `base`: its store
/// replicas (replica i at home site i % 3), then `raft_nodes` Raft nodes,
/// then its MUSIC replicas, then its clients — each at `sites[k]`.
void expect_layout(core::Group& grp, const sim::Network& net,
                   sim::NodeId base, const std::array<int, 3>& sites,
                   int store_nodes, int raft_nodes, int clients) {
  sim::NodeId id = base;
  ASSERT_EQ(grp.store.num_replicas(), store_nodes);
  for (int i = 0; i < store_nodes; ++i, ++id) {
    EXPECT_EQ(grp.store.replica(i).node(), id) << "store " << i;
    EXPECT_EQ(net.site_of(id), sites[static_cast<size_t>(i % 3)]);
  }
  ASSERT_EQ(grp.raft ? grp.raft->num_nodes() : 0, raft_nodes);
  for (int i = 0; i < raft_nodes; ++i, ++id) {
    EXPECT_EQ(grp.raft->node(i).node(), id) << "raft " << i;
    EXPECT_EQ(net.site_of(id), sites[static_cast<size_t>(i)]);
  }
  ASSERT_EQ(grp.replicas.size(), 3u);
  for (size_t k = 0; k < 3; ++k, ++id) {
    EXPECT_EQ(grp.replicas[k]->node(), id) << "replica " << k;
    EXPECT_EQ(grp.replicas[k]->site(), sites[k]);
    EXPECT_EQ(net.site_of(id), sites[k]);
  }
  ASSERT_EQ(grp.clients.size(), static_cast<size_t>(clients));
  for (size_t k = 0; k < grp.clients.size(); ++k, ++id) {
    EXPECT_EQ(grp.clients[k]->node(), id) << "client " << k;
    EXPECT_EQ(net.site_of(id), sites[k % 3]);
  }
}

world::Options three_clients() {
  world::Options o;
  o.client_sites = {0, 1, 2};
  return o;
}

/// 4 shards on 4 groups over 8 sites, 6 store replicas per group.
world::ClusterWorld sharded_world() {
  world::Options o;
  o.net.profile = sim::LatencyProfile::uniform(8, 1.0, 0.2);
  o.store_nodes = 6;
  return world::ClusterWorld(o, /*shards=*/4, /*groups=*/0, /*sites=*/8);
}

TEST(WorldLayout, MusicWorldLwt) {
  world::MusicWorld w(three_clients());
  expect_layout(w, w.net, 0, {0, 1, 2}, 3, 0, 3);
  EXPECT_EQ(w.net.num_nodes(), 9);
}

TEST(WorldLayout, MusicWorldRaft) {
  world::Options o = three_clients();
  o.locks = world::LockBackend::Raft;
  world::MusicWorld w(o);
  expect_layout(w, w.net, 0, {0, 1, 2}, 3, 3, 3);
  EXPECT_EQ(w.net.num_nodes(), 12);
}

TEST(WorldLayout, ClusterWorldStaggersGroupsOverSites) {
  world::ClusterWorld w = sharded_world();
  ASSERT_EQ(w.cluster.num_groups(), 4);
  // Per group: 6 store replicas, 3 MUSIC replicas, 3 shared clients.
  for (int g = 0; g < 4; ++g) {
    std::array<int, 3> sites{g % 8, (g + 1) % 8, (g + 2) % 8};
    expect_layout(w.cluster.group(g), w.net, 12 * g, sites, 6, 0, 3);
  }
  EXPECT_EQ(w.net.num_nodes(), 48);
}

/// Expects exactly store replicas `k` and `k + 3` and MUSIC replica `k`
/// of `grp` to be down.
void expect_site_down(core::Group& grp, int k) {
  for (int r = 0; r < grp.store.num_replicas(); ++r) {
    EXPECT_EQ(grp.store.replica(r).down(), r % 3 == k) << "store " << r;
  }
  for (int j = 0; j < 3; ++j) {
    EXPECT_EQ(grp.replicas[static_cast<size_t>(j)]->down(), j == k)
        << "replica " << j;
  }
}

void expect_all_up(core::Group& grp) { expect_site_down(grp, -1); }

TEST(WorldFaults, MusicWorldRestartBouncesEveryStoreReplicaAtTheSite) {
  world::Options o = three_clients();
  o.store_nodes = 6;
  world::MusicWorld w(o);
  fault::NemesisHooks h = w.nemesis_hooks();
  for (int k = 0; k < 3; ++k) {
    h.restart_site(k, /*down=*/true, /*amnesia=*/false, 0);
    expect_site_down(w, k);
    h.restart_site(k, /*down=*/false, /*amnesia=*/false, 0);
    expect_all_up(w);
  }
}

TEST(WorldFaults, ClusterWorldRestartBouncesTheSameReplicasInEveryGroup) {
  world::ClusterWorld w = sharded_world();
  fault::NemesisHooks h = w.nemesis_hooks();
  for (int k = 0; k < 3; ++k) {
    h.restart_site(k, /*down=*/true, /*amnesia=*/false, 0);
    for (int g = 0; g < w.cluster.num_groups(); ++g) {
      SCOPED_TRACE(g);
      expect_site_down(w.cluster.group(g), k);
    }
    h.restart_site(k, /*down=*/false, /*amnesia=*/false, 0);
    for (int g = 0; g < w.cluster.num_groups(); ++g) {
      expect_all_up(w.cluster.group(g));
    }
  }
}

TEST(WorldFaults, CrashHooksTargetOneReplicaInEveryGroup) {
  world::ClusterWorld w = sharded_world();
  fault::NemesisHooks h = w.nemesis_hooks();
  h.crash_store(4, /*down=*/true, /*amnesia=*/false);
  h.crash_music(2, /*down=*/true, /*amnesia=*/false);
  for (int g = 0; g < w.cluster.num_groups(); ++g) {
    core::Group& grp = w.cluster.group(g);
    for (int r = 0; r < 6; ++r) EXPECT_EQ(grp.store.replica(r).down(), r == 4);
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(grp.replicas[static_cast<size_t>(k)]->down(), k == 2);
    }
  }
}

TEST(WorldFaults, HooksRejectAReplicaTheGroupDoesNotHave) {
  world::ClusterWorld w = sharded_world();
  fault::NemesisHooks h = w.nemesis_hooks();
  EXPECT_THROW(h.crash_store(6, true, false), std::out_of_range);
  EXPECT_THROW(h.crash_store(-1, true, false), std::out_of_range);
  EXPECT_THROW(h.crash_music(3, true, false), std::out_of_range);
  // Index 4 names store replica 4 but no MUSIC replica: the restart
  // throws before it takes anything down.
  EXPECT_THROW(h.restart_site(4, true, false, 0), std::out_of_range);
  EXPECT_THROW(h.restart_site(-1, true, false, 0), std::out_of_range);
  for (int g = 0; g < w.cluster.num_groups(); ++g) {
    expect_all_up(w.cluster.group(g));
  }
}

struct NullObserver : core::LockObserver {
  void on_forced_release(const Key&, LockRef) override {}
};

TEST(WorldObserve, ReachesEveryReplica) {
  NullObserver obs;
  world::MusicWorld mw(three_clients());
  mw.observe(&obs);
  for (auto& r : mw.replicas) EXPECT_EQ(r->observer(), &obs);

  world::ClusterWorld cw = sharded_world();
  cw.observe(&obs);
  for (int g = 0; g < cw.cluster.num_groups(); ++g) {
    for (auto& r : cw.cluster.group(g).replicas) EXPECT_EQ(r->observer(), &obs);
  }
}

}  // namespace
}  // namespace music
