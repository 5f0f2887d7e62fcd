// Shared fixture for cluster-layer tests: a world::ClusterWorld plus the one
// ECF checker every shard-aware test client reports to, and the TaskRunner
// idiom from tests/util/world.h.
#pragma once

#include <utility>

#include "util/world.h"
#include "verify/oracle.h"
#include "world/world.h"

namespace music::test {

/// world::Options for the cluster fixtures: the fast co-located profile
/// (cluster tests exercise routing and moves, not WAN latency shape), with
/// the failure detector running as production MUSIC does.
inline world::Options cluster_options(uint64_t seed = 1) {
  world::Options o;
  o.seed = seed;
  o.net.profile = sim::LatencyProfile::uniform(3, 1.0, 0.2);
  o.failure_detector = true;
  return o;
}

class ClusterWorld : public world::ClusterWorld {
 public:
  explicit ClusterWorld(world::Options opt, int shards = 1, int groups = 0,
                        int sites = 3)
      : world::ClusterWorld(std::move(opt), shards, groups, sites),
        checker(sim),
        runner(sim) {
    observe(&checker);
  }

  cluster::Client& make_client(int site) { return add_client(site, &checker); }

  verify::EcfChecker checker;
  TaskRunner runner;
};

}  // namespace music::test
