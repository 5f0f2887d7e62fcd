#include "world/world.h"

#include <string>
#include <utility>

namespace music::world {
namespace {

/// Switches `sim` to conservative PDES when asked.  Must run between the
/// Simulation and the Network: the network arms per-lane delivery state at
/// construction.  Returns the network config so it can sit in Fabric's
/// member-init list.
const sim::NetworkConfig& enable_pdes(sim::Simulation& sim,
                                      const Options& opt) {
  if (opt.pdes_workers > 0) {
    sim::Simulation::PdesOptions po;
    po.sites = opt.net.profile.num_sites();
    po.workers = opt.pdes_workers;
    po.lookahead = sim::Network::conservative_lookahead(opt.net);
    sim.enable_pdes(po);
  }
  return opt.net;
}

/// Store replica i lives at site i % 3.
std::vector<int> node_sites(int n) {
  std::vector<int> v;
  v.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) v.push_back(i % 3);
  return v;
}

std::unique_ptr<raftkv::RaftCluster> start_raft(sim::Simulation& sim,
                                                sim::Network& net,
                                                LockBackend locks) {
  if (locks != LockBackend::Raft) return nullptr;
  auto raft = std::make_unique<raftkv::RaftCluster>(
      sim, net, raftkv::RaftConfig{}, std::vector<int>{0, 1, 2});
  raft->start();
  raft->wait_for_leader();
  return raft;
}

void crash_store_replica(ds::StoreCluster& store, int r, bool down,
                         bool amnesia) {
  if (down && amnesia) store.replica(r).wipe_state();
  store.replica(r).set_down(down);
}

}  // namespace

std::vector<int> grouped_sites(const std::vector<int>& per_site) {
  std::vector<int> v;
  for (size_t site = 0; site < per_site.size(); ++site) {
    v.insert(v.end(), static_cast<size_t>(per_site[site]),
             static_cast<int>(site));
  }
  return v;
}

std::vector<int> grouped_sites(int per_site) {
  return grouped_sites(std::vector<int>(3, per_site));
}

Fabric::Fabric(Options opt)
    : options(std::move(opt)),
      sim(options.seed),
      net(sim, enable_pdes(sim, options)) {}

// ---- MusicWorld --------------------------------------------------------------

MusicWorld::MusicWorld(Options opt)
    : Fabric(std::move(opt)),
      store(sim, net, options.store, node_sites(options.store_nodes)),
      raft(start_raft(sim, net, options.locks)),
      locks(store),
      raft_locks(raft ? std::make_unique<ls::RaftLockStore>(*raft) : nullptr) {
  ls::LockBackend& backend =
      raft_locks ? static_cast<ls::LockBackend&>(*raft_locks) : locks;
  for (int site = 0; site < 3; ++site) {
    replicas.push_back(
        std::make_unique<core::MusicReplica>(store, backend, options.music,
                                             site));
  }
  if (options.failure_detector) {
    for (auto& r : replicas) r->start_failure_detector();
  }
  for (int site : options.client_sites) add_client(site);
}

core::MusicClient& MusicWorld::add_client(int site) {
  int first = options.holder_site >= 0 ? options.holder_site : site;
  std::vector<core::MusicReplica*> prefs{
      replicas.at(static_cast<size_t>(first)).get()};
  for (int j = 0; j < 3; ++j) {
    if (j != first) prefs.push_back(replicas[static_cast<size_t>(j)].get());
  }
  clients.push_back(std::make_unique<core::MusicClient>(sim, net, prefs,
                                                        options.client, site));
  return *clients.back();
}

std::vector<core::MusicClient*> MusicWorld::client_ptrs() {
  std::vector<core::MusicClient*> v;
  v.reserve(clients.size());
  for (auto& c : clients) v.push_back(c.get());
  return v;
}

fault::NemesisHooks MusicWorld::nemesis_hooks() {
  fault::NemesisHooks h;
  h.crash_store = [this](int r, bool down, bool amnesia) {
    crash_store_replica(store, r, down, amnesia);
  };
  h.crash_music = [this](int r, bool down, bool amnesia) {
    replicas.at(static_cast<size_t>(r))->set_down(down, amnesia);
  };
  h.restart_site = [this](int site, bool down, bool amnesia, int) {
    for (int r = site; r < store.num_replicas(); r += 3) {
      crash_store_replica(store, r, down, amnesia);
    }
    replicas.at(static_cast<size_t>(site))->set_down(down, amnesia);
  };
  return h;
}

void MusicWorld::observe(core::LockObserver* observer) {
  for (auto& r : replicas) r->set_observer(observer);
}

// ---- ClusterWorld ------------------------------------------------------------

namespace {

cluster::ClusterConfig cluster_config(const Options& opt, int shards,
                                      int groups, int sites) {
  cluster::ClusterConfig cc;
  cc.shards = shards;
  cc.groups = groups;
  cc.sites = sites;
  cc.store_nodes_per_group = opt.store_nodes;
  cc.holder_site = opt.holder_site;
  cc.failure_detector = opt.failure_detector;
  cc.music = opt.music;
  cc.store = opt.store;
  cc.client = opt.client;
  return cc;
}

}  // namespace

ClusterWorld::ClusterWorld(Options opt, int shards, int groups, int sites)
    : Fabric(std::move(opt)),
      cluster(sim, net, cluster_config(options, shards, groups, sites)) {
  for (int site : options.client_sites) add_client(site);
}

cluster::Client& ClusterWorld::add_client(int site,
                                          verify::EcfChecker* checker) {
  clients.push_back(std::make_unique<cluster::Client>(cluster, site, checker));
  return *clients.back();
}

fault::NemesisHooks ClusterWorld::nemesis_hooks() {
  fault::NemesisHooks h;
  h.crash_store = [this](int r, bool down, bool amnesia) {
    for (int g = 0; g < cluster.num_groups(); ++g) {
      cluster.set_down_store(g, r, down, amnesia);
    }
  };
  h.crash_music = [this](int r, bool down, bool amnesia) {
    for (int g = 0; g < cluster.num_groups(); ++g) {
      cluster.set_down_music(g, r, down, amnesia);
    }
  };
  // A site bounce: that site's store and MUSIC replica in every group.
  h.restart_site = [this](int site, bool down, bool amnesia, int) {
    for (int g = 0; g < cluster.num_groups(); ++g) {
      cluster.set_down_store(g, site, down, amnesia);
      cluster.set_down_music(g, site, down, amnesia);
    }
  };
  return h;
}

void ClusterWorld::observe(core::LockObserver* observer) {
  for (int g = 0; g < cluster.num_groups(); ++g) {
    for (auto& r : cluster.group(g).replicas) r->set_observer(observer);
  }
}

// ---- Baselines ---------------------------------------------------------------

ZkWorld::ZkWorld(Options opt)
    : Fabric(std::move(opt)), ens(sim, net, zab::ZabConfig{}, {0, 1, 2}) {
  ens.start();
  for (int site : options.client_sites) {
    clients.push_back(std::make_unique<zab::ZkClient>(ens, site));
  }
}

std::vector<zab::ZkClient*> ZkWorld::client_ptrs() {
  std::vector<zab::ZkClient*> v;
  for (auto& c : clients) v.push_back(c.get());
  return v;
}

CdbWorld::CdbWorld(Options opt)
    : Fabric(std::move(opt)),
      cluster(sim, net, raftkv::RaftConfig{}, {0, 1, 2}) {
  cluster.start();
  cluster.wait_for_leader();
  for (int site : options.client_sites) {
    // Built stepwise: GCC 12 mis-fires -Werror=restrict on literal +
    // to_string rvalue concats.
    std::string name = "c";
    name += std::to_string(clients.size());
    clients.push_back(
        std::make_unique<raftkv::TxClient>(cluster, site, std::move(name)));
  }
}

std::vector<raftkv::TxClient*> CdbWorld::client_ptrs() {
  std::vector<raftkv::TxClient*> v;
  for (auto& c : clients) v.push_back(c.get());
  return v;
}

}  // namespace music::world
