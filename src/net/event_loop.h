// The real-time host for the TCP backend: epoll over real sockets, fused
// with a sim::Simulation that supplies timers, futures and the coroutine
// scheduler to protocol code.
//
// Protocol libraries (client, datastore, lockstore) run unchanged over TCP
// because everything they need from "the simulator" — schedule(), Promise,
// await_with_timeout — is clock-driven, and this loop drives that clock
// from wall time: each iteration advances the simulation to the elapsed
// real time, then sleeps in epoll_pwait2 until either a socket is ready or
// the simulation's next timer is due (peek_next_event_at).  The sleep's
// deadline has nanosecond resolution, so sim time tracks real microseconds
// since construction and a timer fires within the kernel's wakeup latency
// of its due time: a retry backoff of sim::ms(5) is a real 5ms pause, not
// a whole millisecond.
//
// Output is flushed at one point per advance: transports queue frames in
// per-connection buffers and register a flush hook, which poll_once runs
// right after each advance of the simulation — before it sleeps and at the
// end of the iteration.  Everything one iteration produced for a
// connection (replies to a batch of requests, the fan-out of a quorum
// round) therefore leaves in a single send().
// Needs Linux >= 5.11 and glibc >= 2.35 (checked at configure time).
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace music::net {

/// Epoll + simulation hybrid loop.  Single-threaded, like the sim.
class EventLoop {
 public:
  /// Called with the epoll event mask when the fd is ready.
  using IoFn = std::function<void(uint32_t events)>;

  /// Throws std::system_error if the epoll instance cannot be created.
  explicit EventLoop(sim::Simulation& sim);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT/...).  The loop does not
  /// own the fd; unregister with del_fd before closing it.  Returns false,
  /// installing nothing, when epoll refuses the fd: it would never be
  /// watched, so the caller must treat it as a failed connection.
  [[nodiscard]] bool add_fd(int fd, uint32_t events, IoFn fn);
  /// Changes the watched event mask of a registered fd.
  void mod_fd(int fd, uint32_t events);
  /// Unregisters a fd (safe from inside any IoFn, including its own).
  void del_fd(int fd);

  /// Registers `fn` to run after every advance of the simulation in
  /// poll_once (see file comment); returns a handle for remove_flush_hook.
  /// A transport writes its queued output here.
  int add_flush_hook(std::function<void()> fn);
  /// Unregisters a flush hook (its owner is going away).
  void remove_flush_hook(int id);

  /// Runs until stop(): dispatch ready sockets, advance the simulation to
  /// elapsed real time, sleep until the next socket or sim timer.
  void run();

  /// Makes run() return after the current iteration.  Async-signal-safe
  /// (the loop wakes at least every poll interval).
  void stop() { running_ = 0; }

  /// One iteration (advance sim and flush, poll with `timeout_ms` cap,
  /// dispatch, advance sim and flush); lets tests and custom loops
  /// interleave their own work.  The cap is in whole milliseconds; a sim
  /// timer due sooner ends the sleep at its due microsecond.
  void poll_once(int timeout_ms);

  /// Microseconds of wall time since construction == the sim-time target
  /// the loop advances to.
  sim::Time elapsed_us() const;

  sim::Simulation& simulation() { return sim_; }

 private:
  /// Advances the simulation to wall time, then runs the flush hooks.
  void advance_sim();

  sim::Simulation& sim_;
  int epfd_;
  volatile std::sig_atomic_t running_ = 0;
  /// unique_ptr keeps handler addresses stable across rehash; dispatch
  /// re-looks-up the fd so a handler removed mid-batch is skipped.
  std::unordered_map<int, std::unique_ptr<IoFn>> handlers_;
  std::vector<std::pair<int, std::function<void()>>> flush_hooks_;
  int next_hook_id_ = 0;
  int64_t start_ns_;
};

}  // namespace music::net
