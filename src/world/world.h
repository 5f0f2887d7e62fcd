// World builder: every simulated deployment the repo runs, assembled in one
// place.
//
// A world is the paper's Fig. 1 topology over the simulator: a Simulation
// (optionally switched to conservative PDES), the WAN Network, and the
// protocol stack on top — a MUSIC group (quorum store, lock store, one MUSIC
// replica per site, site-local clients), a sharded cluster of such groups,
// or one of the Fig. 6/7 baselines (Zab ensemble, Raft transactional KV).
// Tests, benches, scenario cells, examples and the CLI all build their
// worlds here, so the construction order — which fixes node ids, and with
// them every seeded run — has one definition:
//
//   Simulation -> PDES -> Network -> StoreCluster
//     -> [RaftCluster, started, leader elected] -> lock store
//     -> MUSIC replicas (failure detectors started in replica order)
//     -> clients, in Options::client_sites order
//
// The crash/restart wiring the nemesis needs (nemesis_hooks()) and the
// replica-side lock observer the ECF oracle needs (observe()) are attached
// here too, once per world type.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/client.h"
#include "cluster/cluster.h"
#include "core/client.h"
#include "core/music.h"
#include "datastore/store.h"
#include "fault/nemesis.h"
#include "lockstore/lockstore.h"
#include "lockstore/raft_lockstore.h"
#include "raftkv/raft.h"
#include "raftkv/txkv.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "zab/zab.h"

namespace music::world {

/// Which consensus substrate holds the lock queues (§X-A1).
enum class LockBackend {
  /// Cassandra-style LWTs on the data store (the paper's production setup).
  Lwt,
  /// A separate Raft group (the consensus alternative).
  Raft,
};

/// Everything a world is built from.  Callers set what they need; nothing
/// here encodes a particular bench's or test's methodology.
struct Options {
  uint64_t seed = 1;
  /// The network model; `net.profile` is the WAN latency profile.
  sim::NetworkConfig net{};
  /// > 0 switches the world to conservative PDES with this many workers
  /// before the Network is built (lookahead derived from `net`).  PDES
  /// worlds are bit-identical at any worker count, but differ from classic.
  size_t pdes_workers = 0;
  /// Data-store replicas, interleaved across sites (replica i at i % 3).
  int store_nodes = 3;
  ds::StoreConfig store{};
  LockBackend locks = LockBackend::Lwt;
  core::MusicConfig music{};
  /// Start every MUSIC replica's failure detector (§III lock release).
  bool failure_detector = false;
  core::ClientConfig client{};
  /// One client per entry, at that site; the order is the workload's cid
  /// order.
  std::vector<int> client_sites;
  /// Site whose replica every client tries first; -1 = the client's own.
  int holder_site = -1;
};

/// Client sites grouped by site: `per_site[s]` clients at site s, site 0's
/// first.
std::vector<int> grouped_sites(const std::vector<int>& per_site);
/// `per_site` clients at each of the 3 sites, grouped.
std::vector<int> grouped_sites(int per_site);

/// The simulated fabric every world stands on.
class Fabric {
 public:
  explicit Fabric(Options opt);

  Options options;
  sim::Simulation sim;
  sim::Network net;
};

/// One MUSIC group with its clients.
class MusicWorld : public Fabric {
 public:
  explicit MusicWorld(Options opt = {});

  core::MusicClient& client(size_t i) { return *clients.at(i); }
  core::MusicReplica& replica(int site) {
    return *replicas.at(static_cast<size_t>(site));
  }
  std::vector<core::MusicClient*> client_ptrs();

  /// Adds a client at `site` (after the ones Options named).
  core::MusicClient& add_client(int site);

  /// Crash/restart wiring for fault::Nemesis: store crashes honour amnesia
  /// (wipe, then down), MUSIC crashes go through MusicReplica::set_down,
  /// and a site restart bounces the site's store replicas and its MUSIC
  /// replica.
  fault::NemesisHooks nemesis_hooks();

  /// Attaches `observer` (e.g. the ECF oracle) to every replica.
  void observe(core::LockObserver* observer);

  ds::StoreCluster store;
  /// LockBackend::Raft only: the lock-queue Raft group.
  std::unique_ptr<raftkv::RaftCluster> raft;
  /// The LWT lock store over `store` (the replicas' backend under Lwt).
  ls::LockStore locks;
  /// LockBackend::Raft only: the replicas' backend.
  std::unique_ptr<ls::RaftLockStore> raft_locks;
  std::vector<std::unique_ptr<core::MusicReplica>> replicas;  // per site
  std::vector<std::unique_ptr<core::MusicClient>> clients;
};

/// A sharded deployment: a cluster::Cluster of `shards` shards over
/// `groups` MUSIC groups (0 = one per shard) spread across `sites` sites.
/// Every group is built from the same Options as a MusicWorld's
/// (store_nodes per group, store/music/client configs, holder_site,
/// failure detector); Options::client_sites become shard-aware clients.
class ClusterWorld : public Fabric {
 public:
  ClusterWorld(Options opt, int shards, int groups = 0, int sites = 3);

  /// Adds a shard-aware client at `site`, reporting to `checker` if given.
  cluster::Client& add_client(int site, verify::EcfChecker* checker = nullptr);

  /// Site-correlated fault wiring: replica index r goes down in every group
  /// (how a zone outage lands on a sharded deployment).
  fault::NemesisHooks nemesis_hooks();

  /// Attaches `observer` to every replica of every group.
  void observe(core::LockObserver* observer);

  cluster::Cluster cluster;
  std::vector<std::unique_ptr<cluster::Client>> clients;
};

/// The Zookeeper substitute (Fig. 6): a 3-server Zab ensemble, one server
/// per site, and a ZkClient per Options::client_sites entry.
class ZkWorld : public Fabric {
 public:
  explicit ZkWorld(Options opt);
  std::vector<zab::ZkClient*> client_ptrs();

  zab::ZabEnsemble ens;
  std::vector<std::unique_ptr<zab::ZkClient>> clients;
};

/// The CockroachDB substitute (Fig. 7): a 3-node Raft transactional KV, one
/// node per site, and a TxClient per Options::client_sites entry.
class CdbWorld : public Fabric {
 public:
  explicit CdbWorld(Options opt);
  std::vector<raftkv::TxClient*> client_ptrs();

  raftkv::RaftCluster cluster;
  std::vector<std::unique_ptr<raftkv::TxClient>> clients;
};

}  // namespace music::world
