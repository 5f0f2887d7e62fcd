// EventLoop tests: sim timers on the real path fire at microsecond
// precision (a 200us timer is a ~200us pause, not a whole millisecond),
// the poll cap still bounds an idle iteration, stop() ends run(), and a fd
// epoll refuses is reported instead of silently never being watched.
#include "net/event_loop.h"

#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "sim/simulation.h"

namespace music::net {
namespace {

using Clock = std::chrono::steady_clock;

int64_t us_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               t0)
      .count();
}

TEST(EventLoop, SimTimersFireAtMicrosecondPrecision) {
  sim::Simulation sim;
  EventLoop loop(sim);
  std::vector<int64_t> delays;
  for (int i = 0; i < 21; ++i) {
    loop.poll_once(0);  // pin sim time to now before scheduling
    bool fired = false;
    auto t0 = Clock::now();
    sim.schedule(200, [&fired] { fired = true; });
    while (!fired && us_since(t0) < 100'000) loop.poll_once(5);
    ASSERT_TRUE(fired);
    delays.push_back(us_since(t0));
  }
  std::nth_element(delays.begin(), delays.begin() + 10, delays.end());
  // A millisecond-granular sleep takes >= 1000us for every one of these.
  EXPECT_LT(delays[10], 800) << "median wall delay of a 200us sim timer";
  EXPECT_GE(delays[10], 150);  // sanity: not fired ahead of its due time
}

TEST(EventLoop, IdlePollReturnsWithinItsCap) {
  sim::Simulation sim;
  EventLoop loop(sim);
  auto t0 = Clock::now();
  loop.poll_once(5);
  int64_t took = us_since(t0);
  EXPECT_GE(took, 4'500);
  EXPECT_LT(took, 50'000);
}

TEST(EventLoop, StopEndsRun) {
  sim::Simulation sim;
  EventLoop loop(sim);
  sim.schedule(sim::ms(2), [&loop] { loop.stop(); });
  auto t0 = Clock::now();
  loop.run();
  int64_t took = us_since(t0);
  EXPECT_GE(took, 2'000);
  EXPECT_LT(took, 50'000);
}

TEST(EventLoop, AddFdReportsWhatEpollRefuses) {
  sim::Simulation sim;
  EventLoop loop(sim);
  EXPECT_FALSE(loop.add_fd(-1, EPOLLIN, [](uint32_t) {}));
  // A regular file cannot be watched by epoll (EPERM).
  int file = memfd_create("event_loop_test", 0);
  ASSERT_GE(file, 0);
  EXPECT_FALSE(loop.add_fd(file, EPOLLIN, [](uint32_t) {}));
  close(file);

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  int first = 0, second = 0;
  ASSERT_TRUE(loop.add_fd(fds[0], EPOLLIN, [&first](uint32_t) { ++first; }));
  // A second registration of the same fd is refused and must not replace
  // the live handler.
  EXPECT_FALSE(loop.add_fd(fds[0], EPOLLIN, [&second](uint32_t) { ++second; }));
  ASSERT_EQ(write(fds[1], "x", 1), 1);
  loop.poll_once(50);
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
  loop.del_fd(fds[0]);
  close(fds[0]);
  close(fds[1]);
}

}  // namespace
}  // namespace music::net
