// Host clocks of the generator process: wall seconds, CPU seconds and the
// machine's stolen time.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>

namespace perfbench {

/// Monotonic wall-clock seconds.
inline double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of this process, all threads.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Clock ticks (USER_HZ) the hypervisor ran something else while this
/// machine's CPUs wanted to run, summed over CPUs: the `steal` column of
/// /proc/stat.  0 where the kernel does not account steal.
inline unsigned long long host_steal_ticks() {
  unsigned long long v[8] = {};
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                      &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

}  // namespace perfbench
