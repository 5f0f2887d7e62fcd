// bench_kernel: the fast-path simulation kernel against the seed kernel it
// replaced, measured three ways — events/sec, ns/event, and heap
// allocs/event (counted by interposing global operator new).
//
// The baseline is an in-binary copy of the seed kernel's design:
// `std::priority_queue` of events each owning a `std::function<void()>`
// (which heap-allocates for any capture over libstdc++'s 16-byte SSO), with
// the const_cast move-out-of-top idiom.  The fast path is the real
// `sim::Simulation`: InlineFn payloads (64B inline, pooled overflow) run
// in place in a pooled arena, ordered by the hybrid timer wheel (near
// window) + 8-ary far heap of 24-byte entries.
//
// Both kernels run the identical workload: `kChains` self-rescheduling
// event chains whose lambdas capture 48 bytes — within InlineFn's inline
// buffer, beyond std::function's SSO.  Allocations are counted only after a
// warmup so the arena/heap growth phase is excluded: the steady-state claim
// is 0 allocs/event for the fast path.
//
// Exit status enforces the acceptance gate: >= 2x events/sec over the
// baseline and 0 steady-state allocs/event.  `--smoke` runs a shorter
// quota (CI perf-smoke job).  Writes BENCH_kernel.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <queue>
#include <vector>

#include "sim/simulation.h"

// ---- interposing allocation counter ---------------------------------------
//
// Replacing the global allocation functions is the one sanctioned way to
// observe every heap allocation in the process (std::function's included).
// The relaxed atomic costs a few ns per alloc — identical for both kernels.

namespace {
std::atomic<uint64_t> g_allocs{0};
uint64_t allocs_now() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al), n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

// ---- the seed kernel, verbatim in design ----------------------------------

class BaselineKernel;
thread_local BaselineKernel* tl_baseline_sim = nullptr;

class BaselineKernel {
 public:
  using Time = int64_t;

  void schedule(Time delay, std::function<void()> fn) {
    q_.push(Event{now_ + delay, seq_++, std::move(fn), trace_ctx_});
  }

  size_t run_until_idle(size_t max_events) {
    size_t n = 0;
    while (!q_.empty() && n < max_events) {
      const Event& top = q_.top();
      now_ = top.at;
      // The seed's const_cast idiom: move the payload out of the const top
      // before popping, then invoke after the pop.
      std::function<void()> fn = std::move(const_cast<Event&>(top).fn);
      uint64_t ctx = top.ctx;
      q_.pop();
      ++n;
      ++events_run_;
      // Trace-context restore + current-sim scope, exactly as the seed
      // kernel's step() performed per event.
      trace_ctx_ = ctx;
      ++run_depth_;
      BaselineKernel* prev = tl_baseline_sim;
      tl_baseline_sim = this;
      fn();
      tl_baseline_sim = prev;
      --run_depth_;
      if (run_depth_ == 0) trace_ctx_ = 0;
    }
    return n;
  }

  uint64_t events_run() const { return events_run_; }

 private:
  struct Event {
    Time at;
    uint64_t seq;
    mutable std::function<void()> fn;
    uint64_t ctx;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> q_;
  Time now_ = 0;
  uint64_t seq_ = 0;
  uint64_t events_run_ = 0;
  uint64_t trace_ctx_ = 0;
  int run_depth_ = 0;
};

// ---- the shared workload ---------------------------------------------------
//
// Each chain event captures 48 bytes (kernel*, quota*, sink*, 24B payload):
// inside InlineFn's 64B inline buffer, outside std::function's 16B SSO.

template <typename Kernel>
void pump(Kernel& k, uint64_t* quota, uint64_t* sink, uint64_t salt) {
  if (*quota == 0) return;
  --*quota;
  uint64_t pay[3] = {salt, salt ^ 0x9e3779b97f4a7c15ull, salt * 5 + 1};
  // ~3/8 immediate continuations (futures, service submits), the rest spread
  // over a 1ms window like RPC delivery timers.
  int64_t delay = (salt % 8) < 3 ? 0 : static_cast<int64_t>(1 + (salt >> 3) % 1024);
  k.schedule(delay,
             [&k, quota, sink, pay] {
               *sink = *sink ^ (pay[0] + pay[1] * 3 + pay[2]);
               pump(k, quota, sink,
                    pay[0] * 6364136223846793005ull + 1442695040888963407ull);
             });
}

struct KernelStats {
  uint64_t events = 0;
  double wall_sec = 0;
  double events_per_sec = 0;
  double ns_per_event = 0;
  double allocs_per_event = 0;
  uint64_t sink = 0;  // defeats dead-code elimination; printed for show
};

// A mid-size simulated world keeps a few hundred events pending (clients,
// timers, in-flight messages); this is that regime, not a 2-event toy heap
// and not a cache-busting million-entry one.
constexpr int kChains = 384;

template <typename Kernel>
KernelStats drive(Kernel& k, uint64_t total_events, uint64_t warmup_events) {
  KernelStats st;
  std::vector<uint64_t> quotas(kChains, total_events / kChains);
  for (int c = 0; c < kChains; ++c) {
    pump(k, &quotas[c], &st.sink, 0x517cc1b727220a95ull * (c + 1));
  }
  // Warmup: grows the heap vector / event arena / overflow pool to steady
  // state and faults the pages in.  Excluded from every measurement.
  k.run_until_idle(warmup_events);
  uint64_t a0 = allocs_now();
  auto t0 = std::chrono::steady_clock::now();
  size_t ran = k.run_until_idle(SIZE_MAX);
  auto t1 = std::chrono::steady_clock::now();
  uint64_t a1 = allocs_now();
  st.events = ran;
  st.wall_sec = std::chrono::duration<double>(t1 - t0).count();
  st.events_per_sec = static_cast<double>(ran) / st.wall_sec;
  st.ns_per_event = st.wall_sec * 1e9 / static_cast<double>(ran);
  st.allocs_per_event =
      static_cast<double>(a1 - a0) / static_cast<double>(ran);
  return st;
}

void print_stats(const char* name, const KernelStats& s) {
  std::printf("%-10s %12.0f events/s  %8.1f ns/event  %10.4f allocs/event  "
              "(%llu events, %.3fs, sink %llx)\n",
              name, s.events_per_sec, s.ns_per_event, s.allocs_per_event,
              static_cast<unsigned long long>(s.events), s.wall_sec,
              static_cast<unsigned long long>(s.sink));
}

void write_json(const KernelStats& base, const KernelStats& fast,
                double speedup) {
  std::FILE* f = std::fopen("BENCH_kernel.json", "w");
  if (!f) return;
  auto block = [&](const char* name, const KernelStats& s, bool comma) {
    std::fprintf(f,
                 "  \"%s\": {\n"
                 "    \"events\": %llu,\n"
                 "    \"wall_sec\": %.6f,\n"
                 "    \"events_per_sec\": %.1f,\n"
                 "    \"ns_per_event\": %.2f,\n"
                 "    \"allocs_per_event\": %.6f\n"
                 "  }%s\n",
                 name, static_cast<unsigned long long>(s.events), s.wall_sec,
                 s.events_per_sec, s.ns_per_event, s.allocs_per_event,
                 comma ? "," : "");
  };
  std::fprintf(f, "{\n  \"bench\": \"kernel\",\n  \"capture_bytes\": 48,\n");
  block("baseline", base, true);
  block("fastpath", fast, true);
  std::fprintf(f, "  \"speedup_events_per_sec\": %.3f\n}\n", speedup);
  std::fclose(f);
  std::printf("[bench] wrote BENCH_kernel.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const uint64_t total = smoke ? 800'000 : 8'000'000;
  const uint64_t warmup = total / 8;
  std::printf("simulation kernel fast path vs seed kernel "
              "(%d chains, 48B captures, %llu events%s)\n",
              kChains, static_cast<unsigned long long>(total),
              smoke ? ", smoke" : "");

  // Paired reps: each rep runs baseline then fastpath back to back, so a
  // slow host window hits both and the per-rep ratio stays meaningful.
  // The median ratio is the speedup — robust against a contended rep in
  // either direction, with no cherry-picking toward a fast one.
  constexpr int kReps = 5;
  KernelStats bases[kReps];
  KernelStats fasts[kReps];
  int order[kReps];
  for (int rep = 0; rep < kReps; ++rep) {
    {
      BaselineKernel k;
      bases[rep] = drive(k, total, warmup);
    }
    {
      music::sim::Simulation k(1);
      fasts[rep] = drive(k, total, warmup);
    }
    order[rep] = rep;
  }
  auto ratio = [&](int r) {
    return fasts[r].events_per_sec / bases[r].events_per_sec;
  };
  std::sort(order, order + kReps,
            [&](int a, int b) { return ratio(a) < ratio(b); });
  double speedup = ratio(order[kReps / 2]);
  // Each kernel's own rate is its median rep: the events/sec headline CI
  // holds against the committed baseline moves with host load, and one
  // rep (single runs of one binary spread 20-32M events/s) cannot pin it.
  auto median = [](KernelStats* runs) {
    KernelStats sorted[kReps];
    std::copy(runs, runs + kReps, sorted);
    std::sort(sorted, sorted + kReps,
              [](const KernelStats& a, const KernelStats& b) {
                return a.events_per_sec < b.events_per_sec;
              });
    return sorted[kReps / 2];
  };
  KernelStats base = median(bases);
  KernelStats fast = median(fasts);
  print_stats("baseline", base);
  print_stats("fastpath", fast);

  std::printf("speedup: %.2fx events/sec\n", speedup);
  write_json(base, fast, speedup);

  bool ok = true;
  if (speedup < 2.0) {
    std::printf("FAIL: fast path is %.2fx the baseline (need >= 2x)\n",
                speedup);
    ok = false;
  }
  if (fast.allocs_per_event != 0.0) {
    std::printf("FAIL: fast path allocates %.6f/event in steady state "
                "(need 0 for <=48B captures)\n", fast.allocs_per_event);
    ok = false;
  }
  if (ok) std::printf("ok: >=2x and alloc-free steady state\n");
  return ok ? 0 : 1;
}
