// World builder: every simulated deployment the repo runs, assembled in one
// place.
//
// A world is the paper's Fig. 1 topology over the simulator: a Simulation
// (optionally switched to conservative PDES), the WAN Network, and the
// protocol stack on top — a MUSIC group (core::Group: quorum store, lock
// store, one MUSIC replica per site) with site-local clients, a sharded
// cluster of such groups, or one of the Fig. 6/7 baselines (Zab ensemble,
// Raft transactional KV).  Tests, benches, scenario cells, examples and the
// CLI all build their worlds here, so the construction order — which fixes
// node ids, and with them every seeded run — has one definition:
//
//   Simulation -> PDES -> Network
//     -> Group (per group: StoreCluster -> [RaftCluster, started, leader
//        elected] -> MUSIC replicas -> failure detectors)
//     -> clients, in Options::client_sites order
//
// The crash/restart wiring the nemesis needs (nemesis_hooks()) and the
// replica-side lock observer the ECF oracle needs (observe()) call the
// Group's own methods, once per group, in every world type.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/client.h"
#include "cluster/cluster.h"
#include "core/client.h"
#include "core/group.h"
#include "core/music.h"
#include "fault/nemesis.h"
#include "raftkv/raft.h"
#include "raftkv/txkv.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "zab/zab.h"

namespace music::world {

/// Which consensus substrate holds the lock queues (§X-A1).
using LockBackend = core::LockBackend;

/// Everything a world is built from: the fabric's fields and the lock
/// backend here, the MUSIC group's (store_nodes, configs, failure_detector,
/// holder_site) from core::GroupConfig.  Callers set what they need;
/// nothing here encodes a particular bench's or test's methodology.
struct Options : core::GroupConfig {
  uint64_t seed = 1;
  /// MusicWorld's lock backend (a cluster's groups always use LWTs).
  LockBackend locks = LockBackend::Lwt;
  /// The network model; `net.profile` is the WAN latency profile.
  sim::NetworkConfig net{};
  /// > 0 switches the world to conservative PDES with this many workers
  /// before the Network is built (lookahead derived from `net`).  PDES
  /// worlds are bit-identical at any worker count, but differ from classic.
  size_t pdes_workers = 0;
  /// One client per entry, at that site; the order is the workload's cid
  /// order.
  std::vector<int> client_sites;
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

/// One MUSIC group (core::Group at sites {0, 1, 2}) with its clients:
/// `store`, `locks`, `raft`, `raft_locks`, `replicas` and `clients` are the
/// group's, and add_client(site) adds one at `site`.
class MusicWorld : public Fabric, public core::Group {
 public:
  explicit MusicWorld(Options opt = {});

  core::MusicClient& client(size_t i) { return *clients.at(i); }
  core::MusicReplica& replica(int site) {
    return *replicas.at(static_cast<size_t>(site));
  }
  std::vector<core::MusicClient*> client_ptrs();

  /// Crash/restart wiring for fault::Nemesis, through the group's
  /// crash_store / crash_music / restart_site.
  fault::NemesisHooks nemesis_hooks();
};

/// A sharded deployment: a cluster::Cluster of `shards` shards over
/// `groups` MUSIC groups (0 = one per shard) spread across `sites` sites.
/// Every group is built from the same core::GroupConfig as a MusicWorld's;
/// Options::client_sites become shard-aware clients.
class ClusterWorld : public Fabric {
 public:
  ClusterWorld(Options opt, int shards, int groups = 0, int sites = 3);

  /// Adds a shard-aware client at `site`, reporting to `checker` if given.
  cluster::Client& add_client(int site, verify::EcfChecker* checker = nullptr);

  /// Site-correlated fault wiring: each hook runs the same Group method in
  /// every group (how a zone outage lands on a sharded deployment).
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
