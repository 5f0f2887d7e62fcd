// Determinism goldens for the simulation kernel.
//
// Pins the exact seeded behaviour of a full MUSIC deployment — events run,
// final virtual time, network counters and the ECF history observed by
// checked clients — to values captured BEFORE the fast-path kernel swap
// (InlineFn + arena heap replacing std::function + std::priority_queue).
// Any kernel change that alters event ordering, the rng stream, or the
// number of events executed breaks these constants; a deliberate semantic
// change must regenerate them.
//
// Regenerate with:
//   MUSIC_REGEN_GOLDENS=1 ./sim_determinism_golden_test
// and paste the printed table over kGoldens below.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/client.h"
#include "sim/network.h"
#include "sim/simulation.h"
#include "util/world.h"
#include "verify/oracle.h"

namespace music {
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

struct Golden {
  uint64_t seed;
  const char* profile;
  uint64_t events_run;
  uint64_t fingerprint;
};

// Captured on the pre-swap kernel (std::function + std::priority_queue);
// the arena-heap kernel reproduced every row bit-identically.  Re-pinned
// when settled waits began cancelling their timeout timers: only the event
// count moved (each cancelled timer used to run as a no-op); the
// fingerprint computed without events_run is unchanged for every row.
constexpr Golden kGoldens[] = {
    {1, "11", 6952, 0x29f6277c7b02f5acull},
    {2, "11", 6965, 0x68365b67140bde65ull},
    {3, "11", 6952, 0x32a08b9ecfabc821ull},
    {4, "11", 6926, 0xc86f20bce1b95e74ull},
    {1, "lUs", 10150, 0x50064ed4a512721cull},
    {2, "lUs", 10106, 0x72a5eab77a476a7bull},
    {3, "lUs", 10632, 0x21bba9e9bc4b5070ull},
    {4, "lUs", 9566, 0x8eaf244af95809cdull},
};

/// One checked client's life: contended critical sections on a shared key,
/// every observable transition appended to the shared history log.
sim::Task<void> client_loop(test::MusicWorld& w, verify::EcfChecker& checker,
                            int cid, Fnv& log) {
  verify::CheckedClient c(w.client(static_cast<size_t>(cid)), checker);
  // Built stepwise: GCC 12 mis-fires -Werror=restrict on literal +
  // to_string rvalue concats (see world::CdbWorld).
  Key key = "g";
  key += std::to_string(cid % 3);  // 2 clients contend per key
  for (int round = 0; round < 4; ++round) {
    auto ref = co_await c.create_lock_ref(key);
    log.mix(static_cast<uint64_t>(w.sim.now()));
    if (!ref.ok()) continue;
    log.mix(static_cast<uint64_t>(ref.value()));
    auto acq = co_await c.acquire_lock_blocking(key, ref.value());
    log.mix(static_cast<uint64_t>(acq.status()));
    if (!acq.ok()) continue;
    for (int i = 0; i < 2; ++i) {
      std::string payload = "c";
      payload += std::to_string(cid);
      payload += "r";
      payload += std::to_string(round);
      payload += "i";
      payload += std::to_string(i);
      Value v(std::move(payload));
      auto st = co_await c.critical_put(key, ref.value(), v);
      log.mix(static_cast<uint64_t>(st.status()));
    }
    auto got = co_await c.critical_get(key, ref.value());
    log.mix(static_cast<uint64_t>(got.status()));
    if (got.ok()) log.mix(got.value().data);
    auto rel = co_await c.release_lock(key, ref.value());
    log.mix(static_cast<uint64_t>(rel.status()));
    log.mix(static_cast<uint64_t>(w.sim.now()));
  }
}

struct RunOutcome {
  uint64_t events_run;
  uint64_t fingerprint;
};

RunOutcome run_scenario(uint64_t seed, const std::string& profile_name) {
  world::Options opt = test::options();
  opt.seed = seed;
  opt.net.profile = sim::LatencyProfile::by_name(profile_name);
  opt.client_sites = world::grouped_sites(2);
  test::MusicWorld w(opt);
  verify::EcfChecker checker(w.sim);
  Fnv history;
  for (int cid = 0; cid < 6; ++cid) {
    sim::spawn(w.sim, client_loop(w, checker, cid, history));
  }
  w.sim.run_until(sim::sec(600));

  EXPECT_TRUE(checker.ok()) << checker.report();
  Fnv fp;
  fp.mix(history.h);
  fp.mix(w.sim.events_run());
  fp.mix(static_cast<uint64_t>(w.sim.now()));
  fp.mix(w.net.messages_sent());
  fp.mix(w.net.messages_dropped());
  fp.mix(w.net.bytes_sent());
  fp.mix(w.net.wan_messages_sent());
  for (size_t k = 0; k < static_cast<size_t>(sim::MsgKind::kCount); ++k) {
    fp.mix(w.net.messages_sent(static_cast<sim::MsgKind>(k)));
  }
  fp.mix(checker.violations().size());
  for (int key = 0; key < 3; ++key) {
    std::string name = "g";
    name += std::to_string(key);
    auto truth = checker.stable_truth(name, sim::sec(1));
    fp.mix(truth.has_value() ? truth->data : std::string("<none>"));
  }
  return {w.sim.events_run(), fp.h};
}

TEST(DeterminismGolden, SeededRunsMatchPreSwapKernel) {
  bool regen = std::getenv("MUSIC_REGEN_GOLDENS") != nullptr;
  for (const Golden& g : kGoldens) {
    RunOutcome out = run_scenario(g.seed, g.profile);
    if (regen) {
      std::printf("    {%llu, \"%s\", %llu, 0x%016llxull},\n",
                  static_cast<unsigned long long>(g.seed), g.profile,
                  static_cast<unsigned long long>(out.events_run),
                  static_cast<unsigned long long>(out.fingerprint));
      continue;
    }
    EXPECT_EQ(out.events_run, g.events_run)
        << "seed " << g.seed << " profile " << g.profile;
    EXPECT_EQ(out.fingerprint, g.fingerprint)
        << "seed " << g.seed << " profile " << g.profile;
  }
}

/// The same seed twice in one process must fingerprint identically (guards
/// against hidden global state in the kernel, the pools, or the rng).
TEST(DeterminismGolden, RepeatRunsInProcessAreIdentical) {
  RunOutcome a = run_scenario(7, "lUs");
  RunOutcome b = run_scenario(7, "lUs");
  EXPECT_EQ(a.events_run, b.events_run);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

}  // namespace
}  // namespace music
