#include "wire_replay.h"

#include <chrono>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "json_out.h"
#include "section.h"
#include "wire/codec.h"

namespace perfbench {
namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Repeats `pass` until at least 20 ms elapsed; returns ns per pass.
template <typename F>
double time_passes(F&& pass) {
  int reps = 0;
  double t0 = now_ns();
  double t = t0;
  do {
    pass();
    ++reps;
    t = now_ns();
  } while (t - t0 < 20e6);
  return (t - t0) / reps;
}

}  // namespace

WireStats replay_wire(const WireSample& sample) {
  namespace wire = music::wire;
  WireStats st;
  const size_t n = sample.requests.size();
  if (n == 0) return st;
  st.invokes = n;
  st.frames = 2 * n;

  std::vector<std::string> frames;
  frames.reserve(2 * n);
  AllocTotals a0 = alloc_totals();
  for (size_t i = 0; i < n; ++i) {
    frames.push_back(wire::encode_request(i + 1, sample.requests[i]));
    frames.push_back(wire::encode_response(i + 1, sample.responses[i]));
  }
  for (size_t i = 0; i < frames.size(); ++i) {
    wire::FrameView fv;
    if (wire::peel_frame(frames[i].data(), frames[i].size(), fv) !=
        wire::FrameStatus::Ok) {
      st.round_trip_ok = false;
      continue;
    }
    if (i % 2 == 0) {
      auto req = wire::parse_request(fv.payload);
      const auto& src = sample.requests[i / 2];
      if (!req || req->op != src.op || req->key != src.key ||
          req->ref != src.ref || !(req->value == src.value)) {
        st.round_trip_ok = false;
      }
    } else {
      auto resp = wire::parse_response(fv.payload);
      const auto& src = sample.responses[i / 2];
      if (!resp || resp->status != src.status || resp->ref != src.ref ||
          !(resp->value == src.value)) {
        st.round_trip_ok = false;
      }
    }
  }
  AllocTotals a1 = alloc_totals();
  // The frames vector's own growth was reserved up front; what remains is
  // the codec's allocations (one string per encoded frame, parse results).
  st.allocs = static_cast<double>(a1.count - a0.count) /
              static_cast<double>(st.frames);
  for (const auto& f : frames) st.bytes += f.size();

  std::vector<std::string> scratch(2 * n);
  double enc = time_passes([&] {
    for (size_t i = 0; i < n; ++i) {
      scratch[2 * i] = wire::encode_request(i + 1, sample.requests[i]);
      scratch[2 * i + 1] = wire::encode_response(i + 1, sample.responses[i]);
    }
  });
  st.encode_ns = enc / static_cast<double>(st.frames);

  // Parse results feed a volatile sink so the loop is not optimized away.
  volatile uint64_t sink = 0;
  double parse = time_passes([&] {
    for (size_t i = 0; i < frames.size(); ++i) {
      wire::FrameView fv;
      wire::peel_frame(frames[i].data(), frames[i].size(), fv);
      if (i % 2 == 0) {
        auto req = wire::parse_request(fv.payload);
        sink = sink + (req ? req->key.size() : 0);
      } else {
        auto resp = wire::parse_response(fv.payload);
        sink = sink + (resp ? resp->value.size() : 0);
      }
    }
  });
  st.parse_ns = parse / static_cast<double>(st.frames);
  return st;
}

void write_wire(JsonOut& j, const WireStats& st) {
  j.key("wire").begin_object();
  j.field("frames", st.frames);
  j.field("invokes", st.invokes);
  j.field("bytes", st.bytes);
  j.field("encode_ns", st.encode_ns);
  j.field("parse_ns", st.parse_ns);
  j.field("allocs", st.allocs);
  j.field("round_trip_ok", st.round_trip_ok);
  j.end_object();
}

}  // namespace perfbench
