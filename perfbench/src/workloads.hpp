#pragma once

// The benchmark's four workloads, each driven through deproto's public
// API (api::Experiment, ExperimentRun, SuiteRunner, ResultCache,
// DispatchOptions) in a closed loop: every caller waits for its result
// before issuing the next.
//
//   sync-1m        lv-majority + endemic-massive-failure at N = 10^6 on the
//                  sync backend, one experiment at a time, one thread
//   event-10k      lv-majority-failure-event + endemic-churn-event at
//                  N = 10^4 on the event backend, one thread
//   sweep-count    count-backend jobs through SuiteRunner, 4 threads, an
//                  in-memory JSONL sink, a fresh ResultCache holding a
//                  quarter of the jobs before the timed sweep
//   sweep-dispatch the same kind of job list over 3 deproto-run --worker
//                  processes, no cache
//
// BENCHMARK.json gates on the two sweeps; the per-node workloads run the
// same way on demand, because their medians drift with the host's memory
// contention by more than any bound the benchmark may set.
//
// A run repeats rounds (set-up, then the timed phase, then checks) until
// its time budget is spent, each in a forked process of its own so every
// round starts from a fresh heap. Every round of one seed runs identical
// inputs, so their deterministic outputs must be byte-identical; the
// reported end-to-end metrics are medians over rounds.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small sizes and one round: the benchmark's own smoke test.
  bool smoke = false;
  /// Scratch directory for cache entries and the trace file.
  std::string work_dir;
  /// deproto-run, spawned with --worker by the dispatch workload.
  std::string worker_exe;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;  // operations: experiments or sweep jobs
  std::size_t failed = 0;     // operations that threw or failed a check
  /// False when any operation failed or a determinism check did not hold.
  bool correct = true;
  /// Human-readable lines: digests, sample counts, workload shape,
  /// failure reasons.
  std::vector<std::string> notes;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload. Throws on set-up errors (unknown workload, an
/// unwritable work directory); per-operation failures land in the report.
[[nodiscard]] Report run_workload(const Options& options);

}  // namespace perfbench
