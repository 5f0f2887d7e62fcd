// Offline replay of client-seam frames through the public wire codec:
// encode every request and response, then peel and parse them back.
#pragma once

#include <cstdint>

namespace perfbench {

struct WireSample;
class JsonOut;

struct WireStats {
  uint64_t frames = 0;        // requests + responses in the sample
  uint64_t invokes = 0;       // request/response pairs
  uint64_t bytes = 0;         // encoded frame bytes, one pass
  double encode_ns = 0.0;     // per frame
  double parse_ns = 0.0;      // per frame (peel + parse)
  double allocs = 0.0;        // per frame, encode + parse
  bool round_trip_ok = true;  // every parsed frame matched its source
};

WireStats replay_wire(const WireSample& sample);

/// Writes `st` as the result object's "wire" member.
void write_wire(JsonOut& j, const WireStats& st);

}  // namespace perfbench
