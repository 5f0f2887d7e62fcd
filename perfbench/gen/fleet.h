// The loopback-fleet load generator (see fleet.cc).
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

struct FleetArgs {
  std::vector<uint16_t> music_ports;  // the three musicd MUSIC ports
  uint64_t seed = 1;
  int solo_sections = 400;    // one client alone
  int conc_sections = 15000;  // all clients, split evenly
  bool trace = false;
};

int run_fleet(const FleetArgs& args);

}  // namespace perfbench
