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

/// Nemesis hooks that run each fault on every one of `groups`.
fault::NemesisHooks group_hooks(std::vector<core::Group*> groups) {
  fault::NemesisHooks h;
  h.crash_store = [groups](int r, bool down, bool amnesia) {
    for (core::Group* g : groups) g->crash_store(r, down, amnesia);
  };
  h.crash_music = [groups](int k, bool down, bool amnesia) {
    for (core::Group* g : groups) g->crash_music(k, down, amnesia);
  };
  h.restart_site = [groups](int k, bool down, bool amnesia, int) {
    for (core::Group* g : groups) g->restart_site(k, down, amnesia);
  };
  return h;
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
      core::Group(sim, net, options, {0, 1, 2}, options.locks) {
  for (int site : options.client_sites) add_client(site);
}

std::vector<core::MusicClient*> MusicWorld::client_ptrs() {
  std::vector<core::MusicClient*> v;
  v.reserve(clients.size());
  for (auto& c : clients) v.push_back(c.get());
  return v;
}

fault::NemesisHooks MusicWorld::nemesis_hooks() { return group_hooks({this}); }

// ---- ClusterWorld ------------------------------------------------------------

ClusterWorld::ClusterWorld(Options opt, int shards, int groups, int sites)
    : Fabric(std::move(opt)),
      cluster(sim, net, {options, shards, groups, sites}) {
  for (int site : options.client_sites) add_client(site);
}

cluster::Client& ClusterWorld::add_client(int site,
                                          verify::EcfChecker* checker) {
  clients.push_back(std::make_unique<cluster::Client>(cluster, site, checker));
  return *clients.back();
}

fault::NemesisHooks ClusterWorld::nemesis_hooks() {
  std::vector<core::Group*> groups;
  for (int g = 0; g < cluster.num_groups(); ++g) {
    groups.push_back(&cluster.group(g));
  }
  return group_hooks(std::move(groups));
}

void ClusterWorld::observe(core::LockObserver* observer) {
  for (int g = 0; g < cluster.num_groups(); ++g) {
    cluster.group(g).observe(observer);
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
