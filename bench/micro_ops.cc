// Google-benchmark micro-benchmarks of the MUSIC primitives.
//
// Each benchmark runs one operation on the simulated cluster and reports
// the SIMULATED time via manual timing, so `benchmark`'s statistics
// machinery (repetitions, aggregates) works over virtual-time measurements.
// Wall-clock columns are meaningless here; read the "Time" column as
// simulated seconds per operation.
#include <benchmark/benchmark.h>

#include <memory>

#include "common.h"

using namespace music;
using namespace music::bench;

namespace {

/// Runs `n` full critical sections and returns total simulated seconds.
double run_sections(core::PutMode mode, const sim::LatencyProfile& profile,
                    int batch, int n) {
  MusicWorld w(paper_world(1234, profile, mode, 3, 1));
  auto workload =
      std::make_shared<wl::MusicCsWorkload>(w.client_ptrs(), "mb", batch, 10);
  auto r = wl::run_sequential(w.sim, workload, n, sim::sec(7200));
  return sim::to_sec(static_cast<sim::Duration>(
      r.latency.mean_ms() * 1000.0 * static_cast<double>(r.completed)));
}

void BM_MusicCriticalSection(benchmark::State& state) {
  auto profile = sim::LatencyProfile::profile_lus();
  int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    double sim_seconds = run_sections(core::PutMode::Quorum, profile, batch, 5);
    state.SetIterationTime(sim_seconds / 5.0);
  }
  state.counters["writes_per_section"] = batch;
}
BENCHMARK(BM_MusicCriticalSection)->Arg(1)->Arg(10)->Arg(100)->UseManualTime()
    ->Unit(benchmark::kMillisecond)->Iterations(2);

void BM_MscpCriticalSection(benchmark::State& state) {
  auto profile = sim::LatencyProfile::profile_lus();
  int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    double sim_seconds = run_sections(core::PutMode::Lwt, profile, batch, 5);
    state.SetIterationTime(sim_seconds / 5.0);
  }
}
BENCHMARK(BM_MscpCriticalSection)->Arg(1)->Arg(10)->UseManualTime()
    ->Unit(benchmark::kMillisecond)->Iterations(2);

void BM_QuorumPut(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s(1);
    sim::NetworkConfig nc;
    nc.profile = sim::LatencyProfile::profile_lus();
    sim::Network net(s, nc);
    ds::StoreCluster store(s, net, ds::StoreConfig{}, {0, 1, 2});
    sim::Time cost = 0;
    bool done = false;
    sim::spawn(s, [](sim::Simulation& sm, ds::StoreCluster& st, sim::Time& c,
                     bool& d) -> sim::Task<void> {
      sim::Time t0 = sm.now();
      co_await st.replica_at_site(0).put("k", ds::Cell(Value("v"), 1),
                                         ds::Consistency::Quorum);
      c = sm.now() - t0;
      d = true;
    }(s, store, cost, done));
    s.run_until(sim::sec(10));
    state.SetIterationTime(done ? sim::to_sec(cost) : 10.0);
  }
}
BENCHMARK(BM_QuorumPut)->UseManualTime()->Unit(benchmark::kMillisecond)
    ->Iterations(3);

void BM_LwtCas(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s(1);
    sim::NetworkConfig nc;
    nc.profile = sim::LatencyProfile::profile_lus();
    sim::Network net(s, nc);
    ds::StoreCluster store(s, net, ds::StoreConfig{}, {0, 1, 2});
    sim::Time cost = 0;
    bool done = false;
    sim::spawn(s, [](sim::Simulation& sm, ds::StoreCluster& st, sim::Time& c,
                     bool& d) -> sim::Task<void> {
      ds::LwtUpdate set = [](const std::optional<ds::Cell>&) {
        return ds::LwtDecision(true, Value("v"), std::nullopt);
      };
      sim::Time t0 = sm.now();
      co_await st.replica_at_site(0).lwt("k", set);
      c = sm.now() - t0;
      d = true;
    }(s, store, cost, done));
    s.run_until(sim::sec(10));
    state.SetIterationTime(done ? sim::to_sec(cost) : 10.0);
  }
}
BENCHMARK(BM_LwtCas)->UseManualTime()->Unit(benchmark::kMillisecond)
    ->Iterations(3);

/// Raw simulator speed: events processed per wall second (the one
/// wall-clock-meaningful benchmark here).
void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation s(1);
    int n = 0;
    for (int i = 0; i < 100000; ++i) {
      s.schedule(i % 1000, [&n] { ++n; });
    }
    s.run_until_idle();
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SimulatorEventThroughput);

}  // namespace

BENCHMARK_MAIN();
