// One critical section (Listing 1) driven through the Table I client
// surface, with the benchmark's own per-operation timing.
//
// The same template drives verify::CheckedClient (one MUSIC group, sim or
// TCP) and cluster::Client (sharded).  Timings go into a per-client log
// with a single writer, so PDES lanes never share benchmark state.  When a
// tracer is attached to the simulation, each client call is wrapped in a
// root span "bench.<op>" so the program's own spans, messages and RTTs
// roll up under it.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "sim/span.h"
#include "sim/task.h"
#include "wire/messages.h"

namespace perfbench {

using music::Key;
using music::LockRef;
using music::OpStatus;
using music::Value;

enum Op { kCreate, kAcquire, kPut, kGet, kRelease, kNumOps };

inline const char* op_name(int op) {
  static const char* const names[kNumOps] = {
      "create_lock_ref", "acquire_lock", "critical_put", "critical_get",
      "release_lock"};
  return names[op];
}

inline const char* span_name(int op) {
  static const char* const names[kNumOps] = {
      "bench.create_lock_ref", "bench.acquire_lock", "bench.critical_put",
      "bench.critical_get", "bench.release_lock"};
  return names[op];
}

/// What one section did.  User-declared ctor: crosses coroutine
/// boundaries by value.
struct SectionResult {
  bool ok = false;
  /// The value a critical_get returned (read sections only).
  bool read_found = false;
  Value read_value;
  /// Root span per op (0 when untraced or not reached).
  std::array<music::obs::SpanId, kNumOps> spans{};

  SectionResult() = default;
};

/// Request/response pairs kept for the offline codec replay: real ones from
/// TimedTransport where the client seam is reachable, or (cluster-wide,
/// whose group clients have no seam) rebuilt from each Table I call in
/// critical_section while the log's budget lasts.
struct WireSample {
  std::vector<music::wire::Request> requests;
  std::vector<music::wire::Response> responses;
  size_t budget = 0;

  void add(music::wire::Request req, music::wire::Response resp) {
    if (requests.size() >= budget) return;
    requests.push_back(std::move(req));
    responses.push_back(std::move(resp));
  }
};

/// Per-logical-client record; one writer (the client's coroutine).
struct ClientLog {
  /// Latency of ok sections that started inside the measurement window.
  std::vector<int64_t> lat_us;
  uint64_t attempted = 0;  // sections started inside the window
  uint64_t failed = 0;     // ... of which failed
  uint64_t completed_in_window = 0;  // ok sections ending inside the window
  int64_t first_done_us = -1, last_done_us = -1;  // ... first and last end
  uint64_t ok_total = 0;   // ok sections over the whole run (per-cs base)
  /// Ok completions per 1 s bucket of completion time (whole run).
  std::vector<uint32_t> rate;
  /// Per-op latency (traced runs only).
  std::array<std::vector<int64_t>, kNumOps> op_us;
  /// Benchmark output checks that failed (first few only).
  std::vector<std::string> errors;
  WireSample wire;

  void note_error(std::string e) {
    if (errors.size() < 4) errors.push_back(std::move(e));
  }
  void note_completion(int64_t at_us) {
    size_t b = static_cast<size_t>(at_us / 1'000'000);
    if (rate.size() <= b) rate.resize(b + 1, 0);
    ++rate[b];
  }
  void note_window_completion(int64_t at_us) {
    ++completed_in_window;
    if (first_done_us < 0) first_done_us = at_us;
    last_done_us = at_us;
  }
  /// This closed-loop client's section rate over the window: completed
  /// cycles between its first and last in-window completion, so the sum
  /// over clients is not quantized to whole sections per window.
  double cycle_rate(double window_s) const {
    if (completed_in_window < 2 || last_done_us <= first_done_us) {
      return static_cast<double>(completed_in_window) / window_s;
    }
    return static_cast<double>(completed_in_window - 1) * 1e6 /
           static_cast<double>(last_done_us - first_done_us);
  }
};

/// Runs the body of `op` under a root span and records its duration.
class OpTimer {
 public:
  OpTimer(music::sim::Simulation& sim, int op, int site, bool timed,
          ClientLog& log, SectionResult& res)
      : sim_(sim), op_(op), timed_(timed), log_(log), t0_(sim.now()),
        span_(sim, span_name(op), site) {
    res.spans[static_cast<size_t>(op)] = span_.id();
  }
  ~OpTimer() {
    span_.finish();
    if (timed_) log_.op_us[static_cast<size_t>(op_)].push_back(sim_.now() - t0_);
  }

 private:
  music::sim::Simulation& sim_;
  int op_;
  bool timed_;
  ClientLog& log_;
  music::sim::Time t0_;
  music::sim::OpSpan span_;
};

/// How a client type evicts a lockRef it was never granted (specialized in
/// clients.h; the checked single-group client reaches through to its inner
/// MusicClient, the cluster client routes it).
template <typename C>
struct Evict;

/// create + acquire (blocking) + put or get + release.  `C` is any client
/// with the Table I coroutine methods.  With `put_then_get` the section
/// writes `value` and reads it back.
template <typename C>
music::sim::Task<SectionResult> critical_section(
    music::sim::Simulation& sim, C& c, int site, Key key, bool read,
    bool put_then_get, Value value, bool timed, ClientLog& log) {
  using music::wire::Request;
  using music::wire::Response;
  SectionResult res;
  bool sample = log.wire.requests.size() < log.wire.budget;

  auto ref = music::Result<LockRef>::Err(OpStatus::Timeout);
  {
    OpTimer t(sim, kCreate, site, timed, log, res);
    ref = co_await c.create_lock_ref(key);
  }
  if (sample) {
    log.wire.add(Request(Request::Op::CreateLockRef, key, 0, Value()),
                 Response(ref.status(), ref.ok() ? ref.value() : 0, Value(), {}));
  }
  if (!ref.ok()) co_return res;
  LockRef r = ref.value();

  music::Status acq = OpStatus::Timeout;
  {
    OpTimer t(sim, kAcquire, site, timed, log, res);
    acq = co_await c.acquire_lock_blocking(key, r);
  }
  if (sample) {
    log.wire.add(Request(Request::Op::AcquireLock, key, r, Value()),
                 Response(acq.status()));
  }
  if (!acq.ok()) {
    co_await Evict<C>::remove_lock_ref(c, key, r);
    co_return res;
  }

  bool body_ok = true;
  if (!read || put_then_get) {
    music::Status st = OpStatus::Timeout;
    {
      OpTimer t(sim, kPut, site, timed, log, res);
      st = co_await c.critical_put(key, r, value);
    }
    if (sample) {
      log.wire.add(Request(Request::Op::CriticalPut, key, r, value),
                   Response(st.status()));
    }
    body_ok = st.ok();
  }
  if (body_ok && (read || put_then_get)) {
    auto g = music::Result<Value>::Err(OpStatus::Timeout);
    {
      OpTimer t(sim, kGet, site, timed, log, res);
      g = co_await c.critical_get(key, r);
    }
    if (sample) {
      log.wire.add(Request(Request::Op::CriticalGet, key, r, Value()),
                   Response(g.status(), 0, g.ok() ? g.value() : Value(), {}));
    }
    // NotFound is a legitimate read of a never-written key.
    body_ok = g.ok() || g.status() == OpStatus::NotFound;
    if (g.ok()) {
      res.read_found = true;
      res.read_value = g.value();
    }
  }

  music::Status rel = OpStatus::Timeout;
  {
    OpTimer t(sim, kRelease, site, timed, log, res);
    rel = co_await c.release_lock(key, r);
  }
  if (sample) {
    log.wire.add(Request(Request::Op::ReleaseLock, key, r, Value()),
                 Response(rel.status()));
  }
  res.ok = body_ok;
  co_return res;
}

/// A 10-byte value unique to (client, sequence).
inline Value make_value(int cid, uint64_t seq) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%04x%06llx", cid & 0xffff,
                static_cast<unsigned long long>(seq & 0xffffff));
  return Value(std::string(buf, 10));
}

}  // namespace perfbench
