// PDES over the sharded cluster layer: a 64-group / 8-site world whose
// fingerprint is pinned and must be bit-identical at 1/2/4/8 shard
// workers, plus live shard moves under PDES traffic (the schedule_main_at
// hop in move_shard) asserted ECF-clean and worker-count invariant.
//
// Keys are probed so every logical client only touches shards whose owning
// group is HOMED at the client's site: under PDES that keeps each shared
// core::MusicClient driven from a single site lane (client_at's fallback
// to another site's shared client would make two lanes race on it).  That
// is also the sane deployment — clients talk to co-located group members.
//
// Regenerate after a deliberate semantic change with:
//   MUSIC_REGEN_GOLDENS=1 ./cluster_pdes_golden_test
// and paste the printed row over kGolden below.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/client.h"
#include "cluster/cluster.h"
#include "cluster/world.h"
#include "sim/network.h"

namespace music::cluster {
namespace {

/// FNV-1a 64-bit; the fingerprint accumulator.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ull;
  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void mix(const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 0x100000001b3ull;
    }
    mix(s.size());
  }
};

/// First `want` keys (probing "k<salt>", "k<salt+1>", ...) whose owning
/// group is homed at `site` under the CURRENT shard map.
std::vector<Key> keys_homed_at(test::ClusterWorld& w, int site, int salt,
                               int want) {
  auto map = w.cluster.snapshot();
  std::vector<Key> out;
  for (int i = salt; static_cast<int>(out.size()) < want && i < salt + 4096;
       ++i) {
    Key key = "k";
    key += std::to_string(i);
    int g = map->group_of(map->route(key));
    for (int k = 0; k < 3; ++k) {
      if (w.cluster.home_site(g, k) == site) {
        out.push_back(key);
        break;
      }
    }
  }
  return out;
}

/// One logical client's life: checked critical sections over its keys,
/// logged into its OWN Fnv (per-client logs merged in cid order keep the
/// fingerprint worker-count invariant; a shared log would race).
sim::Task<void> client_loop(test::ClusterWorld& w, cluster::Client& c, int cid,
                            std::vector<Key> keys, Fnv& log) {
  for (int round = 0; round < 2; ++round) {
    for (const Key& key : keys) {
      auto ref = co_await c.create_lock_ref(key);
      log.mix(static_cast<uint64_t>(w.sim.now()));
      if (!ref.ok()) continue;
      auto acq = co_await c.acquire_lock_blocking(key, ref.value());
      log.mix(static_cast<uint64_t>(acq.status()));
      if (!acq.ok()) continue;
      std::string payload = "c";
      payload += std::to_string(cid);
      payload += "r";
      payload += std::to_string(round);
      auto put = co_await c.critical_put(key, ref.value(), Value(payload));
      log.mix(static_cast<uint64_t>(put.status()));
      auto got = co_await c.critical_get(key, ref.value());
      log.mix(static_cast<uint64_t>(got.status()));
      if (got.ok()) log.mix(got.value().data);
      auto rel = co_await c.release_lock(key, ref.value());
      log.mix(static_cast<uint64_t>(rel.status()));
      log.mix(static_cast<uint64_t>(w.sim.now()));
    }
  }
}

struct RunOutcome {
  uint64_t events_run;
  uint64_t fingerprint;
};

/// The 64-group / 8-site world: every shard its own group, group homes
/// staggered round-robin across 8 sites, 16 logical clients (2 per site).
RunOutcome run_big_cluster(uint64_t seed, size_t workers) {
  world::Options opt = test::cluster_options(seed);
  opt.net.profile = sim::LatencyProfile::uniform(8, 40.0, 0.2);
  opt.pdes_workers = workers;
  test::ClusterWorld w(opt, /*shards=*/64, /*groups=*/0, /*sites=*/8);
  EXPECT_TRUE(w.sim.pdes());
  EXPECT_EQ(w.sim.pdes_sites(), 8);

  constexpr int kClients = 16;
  std::vector<Fnv> logs(kClients);
  for (int cid = 0; cid < kClients; ++cid) {
    int site = cid % 8;
    cluster::Client& c = w.make_client(site);
    sim::spawn(w.sim,
               client_loop(w, c, cid, keys_homed_at(w, site, cid * 37, 3),
                           logs[static_cast<size_t>(cid)]));
  }
  w.sim.run_until(sim::sec(30));

  EXPECT_TRUE(w.checker.ok()) << w.checker.report();
  Fnv fp;
  for (const Fnv& log : logs) fp.mix(log.h);
  fp.mix(w.sim.events_run());
  fp.mix(static_cast<uint64_t>(w.sim.now()));
  fp.mix(w.net.messages_sent());
  fp.mix(w.net.wan_messages_sent());
  fp.mix(w.net.bytes_sent());
  fp.mix(w.cluster.stats().admitted);
  fp.mix(w.cluster.stats().wrong_shard_rejects);
  fp.mix(w.cluster.total_critical_puts());
  fp.mix(w.checker.violations().size());
  return {w.sim.events_run(), fp.h};
}

struct Golden {
  uint64_t seed;
  uint64_t events_run;
  uint64_t fingerprint;
};

// Captured at 1 worker; every other worker count must reproduce the row
// bit-identically.
constexpr Golden kGolden = {1, 36518, 0xf55953077e8b411bull};

constexpr size_t kWorkerConfigs[] = {1, 2, 4, 8};

TEST(PdesClusterGolden, SixtyFourGroupsAcrossEightLanesAreWorkerInvariant) {
  bool regen = std::getenv("MUSIC_REGEN_GOLDENS") != nullptr;
  RunOutcome base{0, 0};
  for (size_t wi = 0; wi < std::size(kWorkerConfigs); ++wi) {
    RunOutcome out = run_big_cluster(kGolden.seed, kWorkerConfigs[wi]);
    if (wi == 0) {
      base = out;
      if (regen) {
        std::printf("    {%llu, %llu, 0x%016llxull},\n",
                    static_cast<unsigned long long>(kGolden.seed),
                    static_cast<unsigned long long>(out.events_run),
                    static_cast<unsigned long long>(out.fingerprint));
      } else {
        EXPECT_EQ(out.events_run, kGolden.events_run);
        EXPECT_EQ(out.fingerprint, kGolden.fingerprint);
      }
      continue;
    }
    EXPECT_EQ(out.events_run, base.events_run)
        << "workers " << kWorkerConfigs[wi];
    EXPECT_EQ(out.fingerprint, base.fingerprint)
        << "workers " << kWorkerConfigs[wi];
  }
}

/// Background mover: sequential shard moves, spaced out, each to the next
/// group.  Runs while client traffic is live, exercising move_shard's
/// main-lane hops under PDES.
sim::Task<void> mover(test::ClusterWorld& w, int moves, Fnv& log) {
  for (int i = 0; i < moves; ++i) {
    co_await sim::sleep_for(w.sim, sim::sec(2));
    int shard = i;
    int to = (w.cluster.snapshot()->group_of(shard) + 1) %
             w.cluster.num_groups();
    Status st = co_await w.cluster.move_shard(shard, to);
    log.mix(static_cast<uint64_t>(st.status()));
    log.mix(static_cast<uint64_t>(w.sim.now()));
  }
}

/// Shard moves under PDES traffic on the classic 3-site layout (every
/// group homed at every site, so shared core clients never cross lanes no
/// matter where shards move).
uint64_t run_moves_under_pdes(size_t workers) {
  world::Options opt = test::cluster_options(11);  // 3-site uniform profile
  opt.pdes_workers = workers;
  test::ClusterWorld w(opt, /*shards=*/8);
  EXPECT_TRUE(w.sim.pdes());

  constexpr int kClients = 6;
  std::vector<Fnv> logs(kClients + 1);
  for (int cid = 0; cid < kClients; ++cid) {
    int site = cid % 3;
    cluster::Client& c = w.make_client(site);
    std::vector<Key> keys;
    for (int k = 0; k < 3; ++k) {
      Key key = "m";
      key += std::to_string((cid + 2 * k) % 8);  // overlaps moving shards
      keys.push_back(key);
    }
    sim::spawn(w.sim, client_loop(w, c, cid, std::move(keys),
                                  logs[static_cast<size_t>(cid)]));
  }
  sim::spawn(w.sim, mover(w, 3, logs[kClients]));
  w.sim.run_until(sim::sec(30));

  EXPECT_TRUE(w.checker.ok()) << w.checker.report();
  EXPECT_EQ(w.cluster.stats().moves.load(), 3u);
  Fnv fp;
  for (const Fnv& log : logs) fp.mix(log.h);
  fp.mix(w.sim.events_run());
  fp.mix(w.cluster.stats().admitted);
  fp.mix(w.cluster.stats().wrong_shard_rejects);
  fp.mix(w.cluster.stats().moved_rows);
  return fp.h;
}

TEST(PdesClusterMoves, LiveMovesUnderTrafficAreEcfCleanAndInvariant) {
  uint64_t one = run_moves_under_pdes(1);
  EXPECT_EQ(one, run_moves_under_pdes(3));
}

}  // namespace
}  // namespace music::cluster
