// One MUSIC group, the paper's per-site shape (Fig. 1, §IV), defined once:
// each of three home sites runs a data-store replica and a MUSIC replica,
// and the lock queues sit on the store's LWTs (LockBackend::Raft: on a
// 3-node Raft group at the same sites).  The single-group world, every
// group of a sharded cluster and musicd's process-local copy are all this
// class.  Its construction order fixes node ids, and so every seeded run:
//
//   StoreCluster -> [RaftCluster, started, leader elected]
//     -> MUSIC replicas in home-site order -> failure detectors
//
// (the lock stores own no nodes).
//
// Clients come after, through add_client().  The crash/restart surface the
// nemesis drives and the ECF oracle's observer hook live here too, so a
// site restart means the same thing in every world.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "core/client.h"
#include "core/music.h"
#include "datastore/store.h"
#include "lockstore/lockstore.h"
#include "lockstore/raft_lockstore.h"
#include "raftkv/raft.h"
#include "sim/network.h"
#include "sim/simulation.h"

namespace music::core {

/// Which consensus substrate holds the lock queues (§X-A1).
enum class LockBackend {
  /// Cassandra-style LWTs on the data store (the paper's production setup).
  Lwt,
  /// A separate Raft group (the consensus alternative).
  Raft,
};

/// What a group is built from (world::Options and cluster::ClusterConfig
/// both extend it).
struct GroupConfig {
  /// Data-store replicas, interleaved across the home sites (replica i at
  /// home site i % 3).
  int store_nodes = 3;
  ds::StoreConfig store{};
  MusicConfig music{};
  /// Start every MUSIC replica's failure detector (§III lock release).
  bool failure_detector = false;
  ClientConfig client{};
  /// Home-site index of the replica every client tries first; -1 = the
  /// client's own.
  int holder_site = -1;
};

class Group {
 public:
  /// A group at home sites `sites`, its lock queues on `lock_backend`.  A
  /// non-null `store_transport` replaces the store's in-sim fabric (musicd
  /// passes its TcpTransport).
  Group(sim::Simulation& sim, sim::Network& net, const GroupConfig& cfg,
        std::array<int, 3> sites = {0, 1, 2},
        LockBackend lock_backend = LockBackend::Lwt,
        net::Transport* store_transport = nullptr);
  // Pinned: the replicas hold references into the store and lock stores.
  Group(const Group&) = delete;
  Group& operator=(const Group&) = delete;

  /// Adds a client at home site `k`, preferring the holder site's replica
  /// (its own when holder_site is -1), then the others in order.
  MusicClient& add_client(int k);

  /// Store replica `r` down (amnesia: wiped first) or back up.
  void crash_store(int r, bool down, bool amnesia);
  /// MUSIC replica `k` down or back up (MusicReplica::set_down).
  void crash_music(int k, bool down, bool amnesia);
  /// Home site `k` bounces: every store replica there (r % 3 == k), then
  /// its MUSIC replica.  All three throw std::out_of_range, before any
  /// effect, on an index the group does not have.
  void restart_site(int k, bool down, bool amnesia);

  /// Attaches `observer` (e.g. the ECF oracle) to every replica.
  void observe(LockObserver* observer);

  ds::StoreCluster store;
  /// LockBackend::Raft only: the lock-queue Raft group.
  std::unique_ptr<raftkv::RaftCluster> raft;
  /// The LWT lock store over `store` (the replicas' backend under Lwt).
  ls::LockStore locks;
  /// LockBackend::Raft only: the replicas' backend.
  std::unique_ptr<ls::RaftLockStore> raft_locks;
  std::vector<std::unique_ptr<MusicReplica>> replicas;  // per home site
  std::vector<std::unique_ptr<MusicClient>> clients;

 private:
  std::array<int, 3> sites_;
  ClientConfig client_cfg_;
  int holder_site_;
};

}  // namespace music::core
