// Timing decorator around the client seam (net::Transport): per-op invoke
// counts, request-to-response latency on the simulation clock and a sample
// of the real request/response pairs for the codec replay.  Wraps
// TcpTransport in the fleet and SimTransport in the single-group sim worlds.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/transport.h"
#include "section.h"
#include "sim/future.h"
#include "sim/simulation.h"

namespace perfbench {

class TimedTransport final : public music::net::Transport {
 public:
  TimedTransport(music::sim::Simulation& sim, music::net::Transport& inner,
                 size_t sample_budget)
      : sim_(sim), inner_(inner) {
    sample_.budget = sample_budget;
  }

  /// Off: a plain pass-through (no counts, no extra events).
  bool enabled = false;

  music::sim::Future<music::wire::Response> invoke(
      music::net::PeerId self, music::net::PeerId peer,
      music::wire::Request req, size_t overhead_bytes) override {
    if (!enabled) return inner_.invoke(self, peer, std::move(req), overhead_bytes);
    auto op = static_cast<size_t>(req.op);
    ++invokes_;
    ++by_op_[op];
    size_t slot = sample_.requests.size();
    bool sampled = slot < sample_.budget;
    if (sampled) sample_.add(req, music::wire::Response());
    music::sim::Time t0 = sim_.now();
    auto f = inner_.invoke(self, peer, std::move(req), overhead_bytes);
    f.on_value([this, t0, op, sampled, slot](const music::wire::Response& r) {
      invoke_us_.push_back(sim_.now() - t0);
      if (op == static_cast<size_t>(music::wire::Request::Op::AcquireLock) &&
          r.status == music::OpStatus::Ok) {
        ++acquire_ok_;
      }
      if (sampled) sample_.responses[slot] = r;
    });
    return f;
  }

  music::sim::Future<music::wire::StoreReply> store_call(
      music::net::PeerId self, music::net::PeerId peer,
      music::wire::StoreRequest msg, size_t bytes, size_t reply_bytes,
      size_t overhead_bytes, music::sim::MsgKind kind,
      music::sim::MsgKind reply_kind) override {
    return inner_.store_call(self, peer, std::move(msg), bytes, reply_bytes,
                             overhead_bytes, kind, reply_kind);
  }
  bool peer_up(music::net::PeerId peer) const override {
    return inner_.peer_up(peer);
  }
  bool reachable(music::net::PeerId self,
                 music::net::PeerId peer) const override {
    return inner_.reachable(self, peer);
  }

  uint64_t invokes() const { return invokes_; }
  uint64_t by_op(music::wire::Request::Op op) const {
    return by_op_[static_cast<size_t>(op)];
  }
  uint64_t acquire_ok() const { return acquire_ok_; }
  const std::vector<int64_t>& invoke_us() const { return invoke_us_; }
  const WireSample& sample() const { return sample_; }

 private:
  music::sim::Simulation& sim_;
  music::net::Transport& inner_;
  uint64_t invokes_ = 0;
  std::array<uint64_t, 16> by_op_{};
  uint64_t acquire_ok_ = 0;
  std::vector<int64_t> invoke_us_;
  WireSample sample_;
};

}  // namespace perfbench
