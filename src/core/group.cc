#include "core/group.h"

#include <utility>

namespace music::core {
namespace {

/// Store replica i lives at home site i % 3.
std::vector<int> store_sites(int n, const std::array<int, 3>& sites) {
  std::vector<int> v;
  v.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) v.push_back(sites[static_cast<size_t>(i % 3)]);
  return v;
}

}  // namespace

Group::Group(sim::Simulation& sim, sim::Network& net, const GroupConfig& cfg,
             std::array<int, 3> sites, LockBackend lock_backend,
             net::Transport* store_transport)
    : store(sim, net, cfg.store, store_sites(cfg.store_nodes, sites),
            store_transport),
      locks(store),
      sites_(sites),
      client_cfg_(cfg.client),
      holder_site_(cfg.holder_site) {
  // The lock stores register no nodes, so the Raft group still takes the
  // ids right after the store's.
  ls::LockBackend* backend = &locks;
  if (lock_backend == LockBackend::Raft) {
    raft = std::make_unique<raftkv::RaftCluster>(
        sim, net, raftkv::RaftConfig{},
        std::vector<int>(sites.begin(), sites.end()));
    raft->start();
    raft->wait_for_leader();
    raft_locks = std::make_unique<ls::RaftLockStore>(*raft);
    backend = raft_locks.get();
  }
  replicas.reserve(sites_.size());
  for (int site : sites_) {
    replicas.push_back(
        std::make_unique<MusicReplica>(store, *backend, cfg.music, site));
  }
  // Building a replica schedules nothing, so starting the detectors after
  // all three is the same event order as starting each after its replica.
  if (cfg.failure_detector) {
    for (auto& r : replicas) r->start_failure_detector();
  }
}

MusicClient& Group::add_client(int k) {
  int first = holder_site_ >= 0 ? holder_site_ : k;
  std::vector<MusicReplica*> prefs{replicas.at(static_cast<size_t>(first)).get()};
  for (int j = 0; j < 3; ++j) {
    if (j != first) prefs.push_back(replicas[static_cast<size_t>(j)].get());
  }
  clients.push_back(std::make_unique<MusicClient>(
      store.simulation(), store.network(), std::move(prefs), client_cfg_,
      sites_.at(static_cast<size_t>(k))));
  return *clients.back();
}

void Group::crash_store(int r, bool down, bool amnesia) {
  ds::StoreReplica& rep = store.replica(r);
  if (down && amnesia) rep.wipe_state();
  rep.set_down(down);
}

void Group::crash_music(int k, bool down, bool amnesia) {
  replicas.at(static_cast<size_t>(k))->set_down(down, amnesia);
}

void Group::restart_site(int k, bool down, bool amnesia) {
  MusicReplica& music = *replicas.at(static_cast<size_t>(k));
  for (int r = k; r < store.num_replicas(); r += 3) crash_store(r, down, amnesia);
  music.set_down(down, amnesia);
}

void Group::observe(LockObserver* observer) {
  for (auto& r : replicas) r->set_observer(observer);
}

}  // namespace music::core
