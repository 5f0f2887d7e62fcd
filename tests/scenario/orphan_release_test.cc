// The ECF orphan-release reproducer as a regression test.
//
// A WAN-contended world (96 closed-loop clients on 512 keys, lUsEu) whose
// site 2 is partitioned away for longer than the 8 s holder timeout.  The
// failure detector then forcibly releases holders it can no longer see
// (§IV-B false failure detection), and the next lockholder is granted.  The
// oracle must hear those replica-side preemptions — the world attaches it
// to every replica as their LockObserver — or it reports a grant while the
// preempted ref "still holds" the lock.  Expect zero violations on every
// seed.
//
// Tier-1 runs the 10 s partition; the 9 s and 20 s partitions (just past
// the holder timeout, and long enough for several detector scans) run in
// the soak configuration: `ctest -C soak -R scenario_orphan_release_soak`.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/run.h"
#include "scenario/spec.h"

#ifndef MUSIC_ORPHAN_PARTITIONS
#define MUSIC_ORPHAN_PARTITIONS "10s"
#endif

namespace music::scn {
namespace {

std::string orphan_spec(const std::string& partition) {
  return "scenario ecf_orphan_release\n"
         "seeds 8\n"
         "protocols music\n"
         "topology {\n"
         "  profiles lUsEu\n"
         "  store_nodes 3\n"
         "}\n"
         "workload {\n"
         "  mixes 0.2\n"
         "  clients 96\n"
         "  keys 512\n"
         "  keying uniform\n"
         "  arrival closed\n"
         "  value 10\n"
         "  warmup 5s\n"
         "  measure 65s\n"
         "}\n"
         "faults {\n"
         "  at 40s partition 2|0,1 for " +
         partition +
         "\n"
         "}\n";
}

std::vector<std::string> partitions() {
  std::vector<std::string> v;
  std::string all = MUSIC_ORPHAN_PARTITIONS;
  size_t start = 0;
  while (start <= all.size()) {
    size_t comma = all.find(',', start);
    if (comma == std::string::npos) comma = all.size();
    v.push_back(all.substr(start, comma - start));
    start = comma + 1;
  }
  return v;
}

TEST(OrphanRelease, DetectorPreemptionsReachTheOracleOnEverySeed) {
  for (const std::string& partition : partitions()) {
    Diag diag;
    auto spec = ScenarioSpec::parse(orphan_spec(partition), &diag);
    ASSERT_TRUE(spec.has_value()) << diag.str();
    RunOptions opt;
    opt.threads = 4;
    auto cells = run_sweep(*spec, opt);
    ASSERT_EQ(cells.size(), 8u);
    for (const CellOutcome& c : cells) {
      EXPECT_TRUE(c.ok) << partition << " partition, " << c.label << ": "
                        << c.error;
      EXPECT_EQ(c.violations, 0u) << partition << " partition, " << c.label;
      EXPECT_GT(c.run.completed, 0u) << c.label;
    }
  }
}

}  // namespace
}  // namespace music::scn
