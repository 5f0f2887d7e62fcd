// Shared test helpers: the TaskRunner that drives coroutine tests, the
// world (built by world/world.h) paired with one, and coroutine-safe
// assertion macros.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/simulation.h"
#include "sim/task.h"
#include "world/world.h"

namespace music::test {

/// Runs a Task<void> to completion on the simulation, with a virtual-time
/// cap; returns false if it did not complete in time.
class TaskRunner {
 public:
  explicit TaskRunner(sim::Simulation& s) : sim_(s) {}

  template <typename TaskFactory>
  bool run(TaskFactory&& factory, sim::Duration limit = sim::sec(600)) {
    bool done = false;
    sim::spawn(sim_, wrap(factory(), &done));
    sim_.run_until(sim_.now() + limit);
    return done;
  }

 private:
  static sim::Task<void> wrap(sim::Task<void> t, bool* done) {
    co_await std::move(t);
    *done = true;
  }

  sim::Simulation& sim_;
};

/// world::Options with the fixtures' default: one client per site, in site
/// order (client i at site i).
inline world::Options options() {
  world::Options o;
  o.client_sites = {0, 1, 2};
  return o;
}

/// Options for store- and lock-store-level tests, which drive the stores
/// directly: no clients.
inline world::Options store_options(uint64_t seed = 1, int store_nodes = 3,
                                    ds::StoreConfig store = {}) {
  world::Options o;
  o.seed = seed;
  o.store_nodes = store_nodes;
  o.store = store;
  return o;
}

/// A world::MusicWorld plus the TaskRunner its coroutine tests drive it
/// with.
struct MusicWorld : world::MusicWorld {
  explicit MusicWorld(world::Options opt = test::options())
      : world::MusicWorld(std::move(opt)), runner(sim) {}

  TaskRunner runner;
};

}  // namespace music::test

// Coroutine-safe assertion macros: gtest's ASSERT_* contains a plain
// `return`, which is ill-formed inside a coroutine.  These record the
// failure and co_return instead.
#define CO_ASSERT_TRUE(cond)                          \
  do {                                                \
    if (!(cond)) {                                    \
      ADD_FAILURE() << "CO_ASSERT_TRUE failed: " #cond; \
      co_return;                                      \
    }                                                 \
  } while (0)

#define CO_ASSERT_FALSE(cond) CO_ASSERT_TRUE(!(cond))

#define CO_ASSERT_EQ(a, b)                                               \
  do {                                                                   \
    if (!((a) == (b))) {                                                 \
      ADD_FAILURE() << "CO_ASSERT_EQ failed: " #a " vs " #b;             \
      co_return;                                                         \
    }                                                                    \
  } while (0)
