#include "net/event_loop.h"

#include <errno.h>
#include <sys/epoll.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <system_error>

#include "sim/time.h"

namespace music::net {

namespace {

int64_t monotonic_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int create_epoll() {
  int fd = epoll_create1(0);
  if (fd < 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_create1");
  }
  // A kernel older than 5.11 lacks epoll_pwait2 (ENOSYS); poll_once would
  // then never sleep nor dispatch, so refuse here instead.
  epoll_event ev;
  timespec zero{0, 0};
  if (epoll_pwait2(fd, &ev, 1, &zero, nullptr) < 0 && errno == ENOSYS) {
    close(fd);
    throw std::system_error(ENOSYS, std::generic_category(),
                            "epoll_pwait2 (needs Linux >= 5.11)");
  }
  return fd;
}

}  // namespace

EventLoop::EventLoop(sim::Simulation& sim)
    : sim_(sim), epfd_(create_epoll()), start_ns_(monotonic_ns()) {}

EventLoop::~EventLoop() { close(epfd_); }

sim::Time EventLoop::elapsed_us() const {
  return (monotonic_ns() - start_ns_) / 1000;
}

bool EventLoop::add_fd(int fd, uint32_t events, IoFn fn) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  handlers_[fd] = std::make_unique<IoFn>(std::move(fn));
  return true;
}

void EventLoop::mod_fd(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
}

void EventLoop::del_fd(int fd) {
  epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

int EventLoop::add_flush_hook(std::function<void()> fn) {
  flush_hooks_.emplace_back(next_hook_id_, std::move(fn));
  return next_hook_id_++;
}

void EventLoop::remove_flush_hook(int id) {
  flush_hooks_.erase(
      std::remove_if(flush_hooks_.begin(), flush_hooks_.end(),
                     [id](const auto& h) { return h.first == id; }),
      flush_hooks_.end());
}

void EventLoop::advance_sim() {
  // Run due timers, then pin the sim clock to wall time so everything
  // protocol code schedules "now" lands in the present.
  sim_.run_until(elapsed_us());
  // Then hand what the timers and the socket handlers queued to the kernel.
  for (auto& [id, fn] : flush_hooks_) fn();
}

void EventLoop::poll_once(int timeout_ms) {
  advance_sim();
  // Sleep until the cap or the next sim timer, whichever is first.  The
  // timer deadline is kept to the nanosecond: sim time `next` is due once
  // elapsed_us() reaches it, i.e. at start_ns_ + next * 1000.
  int64_t wait_ns = int64_t{std::max(timeout_ms, 0)} * 1'000'000;
  sim::Time next = sim_.peek_next_event_at();
  if (next != sim::kTimeNever) {
    int64_t gap_ns = start_ns_ + next * 1000 - monotonic_ns();
    wait_ns = std::clamp<int64_t>(gap_ns, 0, wait_ns);
  }
  timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
              static_cast<long>(wait_ns % 1'000'000'000)};
  epoll_event events[64];
  int n = epoll_pwait2(epfd_, events, 64, &ts, nullptr);
  for (int i = 0; i < n; ++i) {
    // Re-look-up per event: an earlier handler in this batch may have
    // removed (or replaced) this fd.
    auto it = handlers_.find(events[i].data.fd);
    if (it == handlers_.end()) continue;
    IoFn* fn = it->second.get();
    (*fn)(events[i].events);
  }
  advance_sim();
}

void EventLoop::run() {
  running_ = 1;
  while (running_) {
    // 50ms cap keeps stop() (e.g. from a signal handler) responsive even
    // with no sockets and no sim timers pending.
    poll_once(50);
  }
}

}  // namespace music::net
