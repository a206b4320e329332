// Dispatch overhead: what `--dispatch N` costs over the in-process
// thread pool for the same sweep. The dispatcher forks workers, frames
// every spec and result as JSON over pipes, and re-parses on both ends,
// so its per-sweep overhead (process spawn + framing + serialization) is
// the price of crash isolation; this bench pins it against the
// `--threads` engine on an identical job list so a regression in the
// wire path or the fork loop shows up as a ratio, not an anecdote. This
// binary doubles as its own worker (the dispatcher execs /proc/self/exe
// with --worker), exactly like the dispatcher integration tests.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "api/suite_runner.hpp"
#include "api/sweep.hpp"
#include "dist/worker.hpp"

namespace {

constexpr std::size_t kN = 2000;
constexpr std::size_t kPeriods = 50;
constexpr std::size_t kJobs = 8;

deproto::api::SweepSpec bench_sweep() {
  deproto::api::SweepSpec sweep;
  sweep.name = "bench-dispatch-overhead";
  sweep.base.name = "bench-epidemic";
  sweep.base.source.catalog = "epidemic";
  sweep.base.n = kN;
  sweep.base.periods = kPeriods;
  sweep.base.seed = 7;
  sweep.base.initial_counts = {kN - 1, 1};
  sweep.replicates = kJobs;
  return sweep;
}

/// jobs/s over wall-clock time: the jobs run on pool threads or in worker
/// processes, so the main thread's CPU time (the default clock) is idle
/// waiting and would overstate the rate by orders of magnitude.
void report(benchmark::State& state) {
  state.counters["jobs"] = kJobs;
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(kJobs) * state.iterations(),
      benchmark::Counter::kIsRate);
}

void BM_InProcessThreads(benchmark::State& state) {
  const deproto::api::SweepSpec sweep = bench_sweep();
  deproto::api::SuiteOptions options;
  options.threads = static_cast<std::size_t>(state.range(0));
  options.store_results = false;
  for (auto _ : state) {
    const deproto::api::SweepResult result =
        deproto::api::SuiteRunner(options).run(sweep);
    benchmark::DoNotOptimize(result.jobs_failed);
  }
  report(state);
}
BENCHMARK(BM_InProcessThreads)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DispatchWorkers(benchmark::State& state) {
  const deproto::api::SweepSpec sweep = bench_sweep();
  deproto::api::SuiteOptions options;
  options.dispatch.workers = static_cast<std::size_t>(state.range(0));
  options.store_results = false;
  for (auto _ : state) {
    const deproto::api::SweepResult result =
        deproto::api::SuiteRunner(options).run(sweep);
    benchmark::DoNotOptimize(result.jobs_failed);
  }
  report(state);
}
BENCHMARK(BM_DispatchWorkers)
    ->Arg(1)
    ->Arg(2)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Worker re-entry: the dispatcher spawns this binary with --worker.
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--worker") {
      deproto::dist::WorkerOptions options;
      for (int j = 1; j + 1 < argc; ++j) {
        if (std::string(argv[j]) == "--worker-heartbeat-ms") {
          options.heartbeat_ms = std::atoi(argv[j + 1]);
        }
      }
      return deproto::dist::run_worker(options);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
