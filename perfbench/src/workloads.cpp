#include "workloads.hpp"

#include <malloc.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "api/experiment.hpp"
#include "api/json.hpp"
#include "api/registry.hpp"
#include "api/result_cache.hpp"
#include "api/suite_runner.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using deproto::api::Experiment;
using deproto::api::ExperimentResult;
using deproto::api::ExperimentRun;
using deproto::api::Json;
using deproto::api::JobOutcome;
using deproto::api::registry_get;
using deproto::api::ResultCache;
using deproto::api::ScenarioSpec;
using deproto::api::SuiteOptions;
using deproto::api::SuiteRunner;
using deproto::api::SweepJob;
using deproto::api::SweepResult;

// Load stays within a 4-core host: one process with at most 4 threads, or
// 3 workers plus the dispatcher.
constexpr std::size_t kSweepThreads = 4;
constexpr std::size_t kDispatchWorkers = 3;
// Endemic verdict: the final stash fraction of the alive population lies
// within this relative distance of eq. (2)'s y*. A massive failure leaves
// dead contacts in every view, which shifts the equilibrium by ~10%.
constexpr double kStashTolerance = 0.25;
// Set-up samples per run: set-up is short and page-fault bound, so its
// median needs more samples than one per round of the longer workloads.
constexpr std::size_t kMinSetups = 9;
// At most this many failure reasons are echoed per run.
constexpr std::size_t kMaxErrorNotes = 5;

double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  return buffer;
}

/// Heap bytes in use: the allocator's own count, exact where RSS deltas
/// would depend on whether freed pages went back to the kernel.
double heap_bytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

/// The workload's inputs come from std::mt19937_64, whose output the C++
/// standard fixes, so a seed yields the same specs on every toolchain and
/// whatever the library under test does with its own RNG.
class Inputs {
 public:
  explicit Inputs(std::uint64_t seed) : engine_(seed) {}
  /// A spec seed that survives the JSON round trip exactly (< 2^53).
  std::uint64_t spec_seed() { return (engine_() >> 12) + 1; }
  std::size_t below(std::size_t k) {
    return static_cast<std::size_t>(engine_() % k);
  }

 private:
  std::mt19937_64 engine_;
};

// ---------------------------------------------------------------- inputs

bool is_sweep(const Options& o) {
  return o.workload == "sweep-count" || o.workload == "sweep-dispatch";
}

/// The per-node workloads' experiments, executed in this order.
std::vector<ScenarioSpec> per_node_specs(const Options& o) {
  Inputs inputs(o.seed);
  std::vector<ScenarioSpec> specs;
  if (o.workload == "sync-1m") {
    const std::size_t n = o.smoke ? 20000 : 1000000;
    ScenarioSpec lv = registry_get("lv-majority").scaled_to(n);
    // N = 10^6 absorbs by period ~130; the registry's 400 periods would
    // not fit a run's budget.
    lv.periods = 160;
    ScenarioSpec endemic =
        registry_get("endemic-massive-failure").scaled_to(n);
    // The registry starts at equilibrium and fails half the group at 150
    // of 300 periods; the benchmark keeps that shape at 40 of 80.
    endemic.periods = 80;
    endemic.faults.massive_failures.at(0).time = 40.0;
    specs = {lv, endemic};
  } else {
    const std::size_t n = o.smoke ? 1000 : 10000;
    specs = {registry_get("lv-majority-failure-event").scaled_to(n),
             registry_get("endemic-churn-event").scaled_to(n)};
    specs[1].faults.churn.seed = inputs.spec_seed();
  }
  for (ScenarioSpec& spec : specs) spec.seed = inputs.spec_seed();
  return specs;
}

struct SweepInputs {
  std::vector<SweepJob> jobs;
  /// Jobs whose results the cache holds before the timed sweep
  /// (sweep-count only: a quarter of them, at seeded positions).
  std::vector<char> prestored;
};

SweepInputs sweep_inputs(const Options& o) {
  Inputs inputs(o.seed);
  std::size_t count = o.workload == "sweep-count" ? 2000 : 3000;
  if (o.smoke) count = 24;
  const ScenarioSpec bases[2] = {
      registry_get("lv-majority-count"),
      registry_get("endemic-massive-failure-count")};
  const std::size_t sizes[3] = {100000, 1000000, 10000000};
  SweepInputs out;
  out.jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const ScenarioSpec& base = bases[inputs.below(2)];
    const std::size_t n = sizes[inputs.below(3)];
    SweepJob job;
    job.index = i;
    job.point = i;
    job.spec = base.scaled_to(n);
    job.spec.seed = inputs.spec_seed();
    job.coords = {{"scenario", Json::string(base.name)},
                  {"n", Json::number(n)}};
    out.jobs.push_back(std::move(job));
  }
  out.prestored.assign(count, 0);
  if (o.workload == "sweep-count") {
    std::vector<std::size_t> order(count);
    for (std::size_t i = 0; i < count; ++i) order[i] = i;
    for (std::size_t i = count; i > 1; --i) {
      std::swap(order[i - 1], order[inputs.below(i)]);
    }
    for (std::size_t i = 0; i < count / 4; ++i) out.prestored[order[i]] = 1;
  }
  return out;
}

// ---------------------------------------------------------------- checks

std::size_t sum(const std::vector<std::size_t>& counts) {
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  return total;
}

/// Empty when the result passes: mean field verified, every period
/// recorded, population conserved, and the scenario's verdict met.
std::string check_result(const ScenarioSpec& spec, const ExperimentResult& r) {
  if (!r.mean_field_verified) return "mean field not verified";
  if (r.series.size() != spec.periods) {
    return fmt("recorded %zu of %zu periods", r.series.size(), spec.periods);
  }
  if (sum(r.initial_counts) != spec.n) return "initial counts do not sum to n";
  for (const deproto::api::PeriodPoint& point : r.series) {
    if (sum(point.counts) != point.total_alive || point.total_alive > spec.n ||
        (!spec.faults.any() && point.total_alive != spec.n)) {
      return fmt("population not conserved at t=%g", point.time);
    }
  }
  if (sum(r.final_counts) != r.final_alive) return "final counts != alive";
  if (spec.source.catalog == "lv") {
    const std::size_t majority = static_cast<std::size_t>(
        std::max_element(r.initial_counts.begin(), r.initial_counts.end()) -
        r.initial_counts.begin());
    if (!r.convergence.absorbed || r.convergence.dominant_state != majority) {
      return "LV not absorbed into the initial majority";
    }
    return "";
  }
  if (spec.source.catalog == "endemic") {
    const auto y = std::find(r.state_names.begin(), r.state_names.end(), "y");
    if (y == r.state_names.end() || spec.source.params.size() != 3 ||
        r.final_alive == 0) {
      return "endemic result has no stash state";
    }
    const double beta = spec.source.params[0];
    const double gamma = spec.source.params[1];
    const double alpha = spec.source.params[2];
    const double y_star = (1.0 - gamma / beta) / (1.0 + gamma / alpha);
    const double frac =
        static_cast<double>(r.final_counts[y - r.state_names.begin()]) /
        static_cast<double>(r.final_alive);
    if (std::abs(frac - y_star) > kStashTolerance * y_star) {
      return fmt("stash fraction %.4f vs eq. (2) y* = %.4f", frac, y_star);
    }
    return "";
  }
  return "no verdict for catalog " + spec.source.catalog;
}

/// Operation accounting shared by rounds and replays.
struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  void record(const std::string& what, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    if (errors.size() < kMaxErrorNotes) errors.push_back(what + ": " + error);
  }
  void merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& e : other.errors) {
      if (errors.size() < kMaxErrorNotes) errors.push_back(e);
    }
  }
};

// ---------------------------------------------------------------- rounds

/// Resets VmHWM to the current RSS (Linux clear_refs "5"), so a forked
/// round reports its own peak rather than one inherited from the parent.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// One round: set-up, the timed phase, and its checks.
struct Round {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> job_ms;
  double node_periods = 0.0;
  double peak_mb = 0.0;  // peak RSS of the round's process to its timed end
  std::string digest;  // SHA-256 of the deterministic output
  Tally tally;
  bool consistent = true;  // round-internal determinism checks held
  std::optional<SweepResult> sweep;
};

struct Launched {
  std::unique_ptr<Experiment> experiment;
  std::optional<ExperimentRun> run;
};

/// Per-node set-up: synthesis and backend launch of every experiment.
std::vector<Launched> launch_all(const std::vector<ScenarioSpec>& specs) {
  std::vector<Launched> launched;
  launched.reserve(specs.size());
  for (const ScenarioSpec& spec : specs) {
    Launched l;
    l.experiment = std::make_unique<Experiment>(spec);
    (void)l.experiment->artifacts();
    l.run.emplace(l.experiment->launch());
    launched.push_back(std::move(l));
  }
  return launched;
}

Round per_node_round(const Options& o) {
  Round round;
  const std::int64_t setup_start = now_ns();
  const std::vector<ScenarioSpec> specs = per_node_specs(o);
  std::vector<Launched> launched = launch_all(specs);
  round.setup_s = seconds_since(setup_start);

  std::vector<ExperimentResult> results;
  std::string output;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::int64_t job_start = now_ns();
    launched[i].run->advance(specs[i].periods);
    results.push_back(launched[i].run->finish());
    output += results.back().to_json(false).dump();
    output += '\n';
    round.job_ms.push_back(ms_between(job_start, now_ns()));
  }
  round.wall_s = seconds_since(start);
  round.peak_mb = peak_rss_mb();
  launched.clear();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    round.tally.record(specs[i].name, check_result(specs[i], results[i]));
    round.node_periods +=
        static_cast<double>(specs[i].n) * static_cast<double>(specs[i].periods);
  }
  round.digest = deproto::api::sha256_hex(output);
  return round;
}

/// A fresh cache directory holding the prestored quarter, filled through
/// SuiteRunner exactly as a first sweep would fill it. `dumps` receives
/// each prestored job's fresh to_json(false) dump, for comparing cache
/// hits with fresh runs.
std::unique_ptr<ResultCache> prestored_cache(const Options& o,
                                             const SweepInputs& in,
                                             std::vector<std::string>* dumps,
                                             Tally* tally) {
  static std::size_t generation = 0;
  const std::filesystem::path dir =
      std::filesystem::path(o.work_dir) /
      fmt("cache-%ld-%zu", static_cast<long>(::getpid()), generation++);
  std::filesystem::remove_all(dir);
  auto cache = std::make_unique<ResultCache>(dir);

  std::vector<SweepJob> subset;
  std::vector<std::size_t> original;
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    if (!in.prestored[i]) continue;
    SweepJob job = in.jobs[i];
    job.index = job.point = subset.size();
    subset.push_back(std::move(job));
    original.push_back(i);
  }
  dumps->assign(in.jobs.size(), "");
  SuiteOptions options;
  options.threads = kSweepThreads;
  options.store_results = false;
  options.cache = cache.get();
  options.on_result = [&](const JobOutcome& outcome) {
    if (outcome.ok) {
      (*dumps)[original[outcome.job.index]] =
          outcome.result.to_json(false).dump();
    }
  };
  const SweepResult result = SuiteRunner(options).run_jobs(subset, "prestore");
  for (const JobOutcome& outcome : result.jobs) {
    tally->record(fmt("prestore job %zu", original[outcome.job.index]),
                  outcome.ok ? "" : outcome.error);
  }
  return cache;
}

void remove_cache(std::unique_ptr<ResultCache>& cache) {
  if (cache == nullptr) return;
  const std::filesystem::path dir = cache->dir();
  cache.reset();
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

/// The error of one JSONL line of a sweep, empty when it passes: in
/// order, ok, its result passing check_result, and for a cache hit the
/// same bytes as the fresh run.
std::string check_line(std::string_view line, std::size_t i,
                       const SweepInputs& in,
                       const std::vector<std::string>& fresh_dumps) {
  try {
    const Json parsed = Json::parse(std::string(line));
    if (parsed.at("job").as_size() != i) return "JSONL line out of order";
    if (!parsed.at("ok").as_bool()) {
      return parsed.get_or("error", std::string("failed"));
    }
    const Json& body = parsed.at("result");
    std::string error =
        check_result(in.jobs[i].spec, ExperimentResult::from_json(body));
    if (error.empty() && in.prestored[i] && body.dump() != fresh_dumps[i]) {
      error = "cache hit differs from the fresh run";
    }
    return error;
  } catch (const std::exception& e) {
    return e.what();
  }
}

/// Checks every job's line, spread over kSweepThreads threads so a round's
/// checks take little of the run's budget.
Tally check_lines(const std::vector<std::string_view>& lines,
                  const SweepInputs& in,
                  const std::vector<std::string>& fresh_dumps) {
  std::vector<Tally> tallies(kSweepThreads);
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < kSweepThreads; ++t) {
      pool.emplace_back([&, t] {
        for (std::size_t i = t; i < in.jobs.size(); i += kSweepThreads) {
          const std::string what =
              fmt("job %zu (%s)", i, in.jobs[i].spec.name.c_str());
          tallies[t].record(what, i < lines.size()
                                      ? check_line(lines[i], i, in, fresh_dumps)
                                      : "missing JSONL line");
        }
      });
    }
  }
  Tally out;
  for (const Tally& t : tallies) out.merge(t);
  return out;
}

Round sweep_round(const Options& o) {
  Round round;
  const bool counted = o.workload == "sweep-count";
  const std::int64_t setup_start = now_ns();
  const SweepInputs in = sweep_inputs(o);
  std::vector<std::string> fresh_dumps;
  std::unique_ptr<ResultCache> cache;
  if (counted) cache = prestored_cache(o, in, &fresh_dumps, &round.tally);
  std::vector<SweepJob> jobs = in.jobs;
  round.setup_s = seconds_since(setup_start);

  std::ostringstream jsonl;
  SuiteOptions options;
  options.store_results = false;
  options.jsonl = &jsonl;
  if (counted) {
    options.threads = kSweepThreads;
    options.cache = cache.get();
  } else {
    options.dispatch.workers = kDispatchWorkers;
    options.dispatch.worker_exe = o.worker_exe;
    // Keep an ambient DEPROTO_CACHE_DIR from turning workers into readers.
    options.dispatch.extra_worker_args = {"--no-cache"};
  }
  const std::int64_t start = now_ns();
  SweepResult result = SuiteRunner(options).run_jobs(std::move(jobs), o.workload);
  round.wall_s = seconds_since(start);
  round.peak_mb = peak_rss_mb();
  remove_cache(cache);

  const std::string text = std::move(jsonl).str();  // moves, no copy
  round.digest = deproto::api::sha256_hex(text);
  if (result.jsonl_failed || result.jobs.size() != in.jobs.size()) {
    round.consistent = false;
  }
  std::vector<std::string_view> lines;
  for (std::size_t at = 0; at < text.size();) {
    const std::size_t end = std::min(text.find('\n', at), text.size());
    lines.push_back(std::string_view(text).substr(at, end - at));
    at = end + 1;
  }
  if (lines.size() > in.jobs.size()) round.consistent = false;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < in.jobs.size(); ++i) {
    const ScenarioSpec& spec = in.jobs[i].spec;
    round.node_periods +=
        static_cast<double>(spec.n) * static_cast<double>(spec.periods);
    if (i < result.jobs.size()) {
      round.job_ms.push_back(result.jobs[i].elapsed_seconds * 1e3);
      hits += result.jobs[i].cached ? 1 : 0;
    }
  }
  round.tally.merge(check_lines(lines, in, fresh_dumps));
  if (counted) {
    std::size_t expected = 0;
    for (const char p : in.prestored) expected += p ? 1 : 0;
    if (result.cache.hits != expected || hits != expected ||
        result.cache.corrupt != 0) {
      round.consistent = false;
      round.tally.errors.push_back(
          fmt("cache: %zu hits (%zu corrupt), %zu prestored",
              result.cache.hits, result.cache.corrupt, expected));
    }
  }
  round.sweep = std::move(result);
  return round;
}

void write_round(std::FILE* out, const Round& r) {
  std::fprintf(out, "%.17g %.17g %.17g %.17g %d %zu %zu %zu %zu %s\n",
               r.setup_s, r.wall_s, r.peak_mb, r.node_periods,
               r.consistent ? 1 : 0, r.tally.attempted, r.tally.failed,
               r.job_ms.size(), r.tally.errors.size(), r.digest.c_str());
  for (const double ms : r.job_ms) std::fprintf(out, "%.17g\n", ms);
  for (std::string e : r.tally.errors) {
    std::replace(e.begin(), e.end(), '\n', ' ');
    std::fprintf(out, "%s\n", e.c_str());
  }
}

bool read_round(const std::string& text, Round& r) {
  std::istringstream in(text);
  int consistent = 0;
  std::size_t jobs = 0;
  std::size_t errors = 0;
  in >> r.setup_s >> r.wall_s >> r.peak_mb >> r.node_periods >> consistent >>
      r.tally.attempted >> r.tally.failed >> jobs >> errors >> r.digest;
  r.consistent = consistent != 0;
  r.job_ms.resize(jobs);
  for (double& ms : r.job_ms) in >> ms;
  std::string line;
  std::getline(in, line);  // the end of the last number's line
  for (std::size_t i = 0; i < errors && std::getline(in, line); ++i) {
    r.tally.errors.push_back(line);
  }
  return !in.fail() && r.tally.errors.size() == errors;
}

/// Runs one round in a forked child, so every round starts from a fresh
/// heap and its peak RSS is that of a fresh process, as in one user run.
/// The child reports the round through a pipe. The parent holds no
/// threads between rounds, so the fork is safe.
Round run_round(const Options& o) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    ::close(fds[0]);
    int status = 1;
    try {
      reset_peak_rss();
      const Round r = is_sweep(o) ? sweep_round(o) : per_node_round(o);
      std::FILE* out = ::fdopen(fds[1], "w");
      if (out != nullptr) {
        write_round(out, r);
        status = std::fclose(out) == 0 ? 0 : 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
    }
    std::fflush(stderr);
    ::_exit(status);
  }
  ::close(fds[1]);
  std::string text;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fds[0], buffer, sizeof buffer);
    if (got > 0) {
      text.append(buffer, static_cast<std::size_t>(got));
    } else if (got == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  Round round;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !read_round(text, round)) {
    throw std::runtime_error("the round's process failed");
  }
  return round;
}

// ---------------------------------------------------------------- replay

/// Per-operation stage totals of one side of the replay.
struct Replay {
  double wall_s = 0.0;
  double n_total = 0.0;  // over operations that ran the simulation
  double node_periods = 0.0;
  double periods = 0.0;
  double launch_bytes = 0.0;
  double probes = 0.0;
  double tokens_generated = 0.0;
  double tokens_dropped = 0.0;
  double messages_sent = 0.0;
  double messages_dropped = 0.0;
  double serialize_bytes = 0.0;
  std::size_t serialized = 0;
  Tally tally;
};

/// Replays operation `i` through the stage calls that SuiteRunner (and
/// the per-node workloads) make, each wrapped in a span: resolve,
/// synthesize, launch, advance, finish, serialize, and for the cache the
/// key, load and store calls. A fresh result is also parsed back, which is
/// how api.parse is reached through public calls; the result that came
/// back through JSON (or the cache) is the one checked.
void replay_one(const ScenarioSpec& spec, std::size_t i, bool prestored,
                ResultCache* cache, Tracer* tracer, Replay& out) {
  const auto job = static_cast<std::int64_t>(i);
  const std::int64_t start = now_ns();
  std::string error;
  {
    Span job_span(tracer, "job", "bench", job);
    try {
      std::optional<ExperimentResult> result;
      if (cache != nullptr) {
        Span span(tracer, "api.cache_key", "api", job);
        (void)cache->key_for(spec);
      }
      if (cache != nullptr && prestored) {
        Span span(tracer, "api.cache_load", "api", job);
        result = cache->load(spec);
        if (!result) throw std::runtime_error("prestored entry missed");
      } else {
        Experiment experiment(spec);
        {
          Span span(tracer, "ode.resolve", "ode", job);
          (void)experiment.resolved();
        }
        {
          Span span(tracer, "core.synthesize", "core", job);
          (void)experiment.artifacts();
        }
        const double heap_before = heap_bytes();
        std::optional<ExperimentRun> run;
        {
          Span span(tracer, "sim.launch", "sim", job);
          run.emplace(experiment.launch());
        }
        out.launch_bytes += std::max(0.0, heap_bytes() - heap_before);
        {
          Span span(tracer, "sim.advance", "sim", job);
          run->advance(spec.periods);
        }
        {
          Span span(tracer, "api.finish", "api", job);
          result = run->finish();
        }
        out.n_total += static_cast<double>(spec.n);
        out.node_periods +=
            static_cast<double>(spec.n) * static_cast<double>(spec.periods);
        out.periods += static_cast<double>(spec.periods);
        out.probes += static_cast<double>(result->probes_total);
        out.tokens_generated += static_cast<double>(result->tokens.generated);
        out.tokens_dropped += static_cast<double>(result->tokens.dropped);
        out.messages_sent += static_cast<double>(result->messages_sent);
        out.messages_dropped += static_cast<double>(result->messages_dropped);
      }
      std::string dump;
      {
        Span span(tracer, "api.serialize", "api", job);
        dump = result->to_json(false).dump();
      }
      out.serialize_bytes += static_cast<double>(dump.size());
      ++out.serialized;
      if (cache != nullptr && !prestored) {
        Span span(tracer, "api.cache_store", "api", job);
        cache->store(spec, *result);
      }
      if (cache == nullptr || !prestored) {
        Span span(tracer, "api.parse", "api", job);
        result = ExperimentResult::from_json(Json::parse(dump));
      }
      error = check_result(spec, *result);
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
  out.wall_s += seconds_since(start);
  out.tally.record(fmt("replay %zu (%s)", i, spec.name.c_str()), error);
}

// ---------------------------------------------------------------- reports

std::string shape_note(const Options& o) {
  if (o.workload == "sweep-count") {
    return fmt("shape: closed loop, 1 process, SuiteRunner on %zu threads, "
               "ResultCache with a quarter of the jobs prestored",
               kSweepThreads);
  }
  if (o.workload == "sweep-dispatch") {
    return fmt("shape: closed loop, dispatcher + %zu deproto-run --worker "
               "processes, no cache",
               kDispatchWorkers);
  }
  return "shape: closed loop, 1 thread, one experiment at a time";
}

void add(Report& report, const char* name, double value, const char* unit) {
  report.metrics.push_back(Metric{name, value, unit});
}

void finish_tally(Report& report, const Tally& tally) {
  report.attempted += tally.attempted;
  report.failed += tally.failed;
  if (tally.failed != 0) report.correct = false;
  for (const std::string& e : tally.errors) report.notes.push_back("FAIL " + e);
}

Report timed_run(const Options& o) {
  Report report;
  const std::int64_t run_start = now_ns();
  std::vector<Round> rounds;
  std::vector<double> setups;
  std::vector<double> peaks;
  // Rounds run while the next one (estimated by the last) fits the
  // budget; set-up samples are topped up to kMinSetups for a stable median.
  for (;;) {
    const std::int64_t round_start = now_ns();
    rounds.push_back(run_round(o));
    peaks.push_back(rounds.back().peak_mb);
    setups.push_back(rounds.back().setup_s);
    const double last = seconds_since(round_start);
    if (o.smoke || seconds_since(run_start) + last > o.seconds) break;
  }
  while (!o.smoke && setups.size() < kMinSetups) {
    const std::int64_t start = now_ns();
    if (is_sweep(o)) {
      const SweepInputs in = sweep_inputs(o);
      if (o.workload == "sweep-count") {
        std::vector<std::string> dumps;
        Tally ignored;
        std::unique_ptr<ResultCache> cache =
            prestored_cache(o, in, &dumps, &ignored);
        setups.push_back(seconds_since(start));
        remove_cache(cache);
      } else {
        setups.push_back(seconds_since(start));
      }
    } else {
      std::vector<Launched> launched = launch_all(per_node_specs(o));
      setups.push_back(seconds_since(start));
    }
  }

  std::vector<double> walls;
  std::vector<double> node_rates;
  std::vector<double> job_rates;
  std::vector<double> job_ms;
  Tally tally;
  for (const Round& r : rounds) {
    walls.push_back(r.wall_s);
    node_rates.push_back(r.node_periods / r.wall_s);
    job_rates.push_back(static_cast<double>(r.job_ms.size()) / r.wall_s);
    job_ms.insert(job_ms.end(), r.job_ms.begin(), r.job_ms.end());
    tally.merge(r.tally);
    if (!r.consistent || r.digest != rounds.front().digest) {
      report.correct = false;
      report.notes.push_back("FAIL output differs between rounds of one seed");
    }
  }
  finish_tally(report, tally);

  add(report, "setup_s", quantile(setups, 0.5), "s");
  add(report, "wall_s", quantile(walls, 0.5), "s");
  add(report, "node_periods_per_s", quantile(node_rates, 0.5), "1/s");
  add(report, "jobs_per_s", quantile(job_rates, 0.5), "1/s");
  add(report, "job_p50_ms", quantile(job_ms, 0.5), "ms");
  add(report, "job_p90_ms", quantile(job_ms, 0.9), "ms");
  add(report, "peak_rss_mb", quantile(peaks, 0.5), "MB");

  report.notes.push_back(shape_note(o));
  report.notes.push_back(
      fmt("digest %s seed=%llu sha256=%s", o.workload.c_str(),
          static_cast<unsigned long long>(o.seed),
          rounds.front().digest.c_str()));
  report.notes.push_back(fmt(
      "samples: %zu rounds (medians), %zu set-ups, %zu job latencies",
      rounds.size(), setups.size(), job_ms.size()));
  std::string per_round = "round wall_s:";
  for (const double w : walls) per_round += fmt(" %.3f", w);
  per_round += "; peak_rss_mb:";
  for (const double p : peaks) per_round += fmt(" %.1f", p);
  report.notes.push_back(per_round);
  report.notes.push_back(
      fmt("failed_frac %.6g (%zu of %zu operations)",
          ratio(static_cast<double>(report.failed),
                static_cast<double>(report.attempted)),
          report.failed, report.attempted));
  return report;
}

Report traced_run(const Options& o) {
  Report report;
  // The operations replayed, one at a time, on this thread.
  std::vector<ScenarioSpec> specs;
  SweepInputs in;
  if (is_sweep(o)) {
    in = sweep_inputs(o);
    for (const SweepJob& job : in.jobs) specs.push_back(job.spec);
  } else {
    specs = per_node_specs(o);
    in.prestored.assign(specs.size(), 0);
  }
  Tally tally;
  // The sweep engines' own counters come from one real, untraced sweep.
  std::optional<Round> sweep;
  if (is_sweep(o)) {
    sweep = sweep_round(o);
    tally.merge(sweep->tally);
    if (!sweep->consistent) report.correct = false;
  }
  // Every operation runs twice, untraced and traced, in alternating
  // order, so host drift cancels out of the overhead. Each side has its
  // own prestored cache, so both see the same hits and misses.
  std::unique_ptr<ResultCache> caches[2];
  if (o.workload == "sweep-count") {
    std::vector<std::string> dumps;
    for (auto& cache : caches) cache = prestored_cache(o, in, &dumps, &tally);
  }
  Replay untraced;
  Replay traced;
  Tracer tracer;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t pass = 0; pass < 2; ++pass) {
      if ((pass + i) % 2 == 0) {
        replay_one(specs[i], i, in.prestored[i], caches[0].get(), nullptr,
                   untraced);
      } else {
        replay_one(specs[i], i, in.prestored[i], caches[1].get(), &tracer,
                   traced);
      }
    }
  }
  for (auto& cache : caches) remove_cache(cache);
  tally.merge(untraced.tally);
  tally.merge(traced.tally);
  finish_tally(report, tally);

  auto mean_ms = [&](const char* name) {
    return tracer.totals(name).mean_ms();
  };
  const double advance_ms = tracer.totals("sim.advance").total_ms;
  add(report, "ode.resolve_ms", mean_ms("ode.resolve"), "ms");
  add(report, "core.synthesize_ms", mean_ms("core.synthesize"), "ms");
  add(report, "sim.launch_ms", mean_ms("sim.launch"), "ms");
  add(report, "sim.bytes_per_node", ratio(traced.launch_bytes, traced.n_total),
      "B");
  add(report, "sim.advance_ms", mean_ms("sim.advance"), "ms");
  add(report, "sim.ns_per_node_period",
      ratio(advance_ms * 1e6, traced.node_periods), "ns");
  add(report, "sim.us_per_period", ratio(advance_ms * 1e3, traced.periods),
      "us");
  add(report, "sim.probes_per_node_period",
      ratio(traced.probes, traced.node_periods), "count");
  add(report, "sim.token_drop_frac",
      ratio(traced.tokens_dropped, traced.tokens_generated), "ratio");
  add(report, "sim.messages_per_node_period",
      ratio(traced.messages_sent, traced.node_periods), "count");
  add(report, "sim.message_drop_frac",
      ratio(traced.messages_dropped, traced.messages_sent), "ratio");
  add(report, "api.finish_ms", mean_ms("api.finish"), "ms");
  add(report, "api.serialize_ms", mean_ms("api.serialize"), "ms");
  add(report, "api.serialize_bytes",
      ratio(traced.serialize_bytes, static_cast<double>(traced.serialized)),
      "B");
  add(report, "api.parse_ms", mean_ms("api.parse"), "ms");
  add(report, "api.cache_key_ms", mean_ms("api.cache_key"), "ms");
  add(report, "api.cache_load_ms", mean_ms("api.cache_load"), "ms");
  add(report, "api.cache_store_ms", mean_ms("api.cache_store"), "ms");

  // Engine counters of the real sweep; zero where the engine did not run.
  const SweepResult* s = sweep ? &*sweep->sweep : nullptr;
  const bool pool = s != nullptr && !s->dispatch_enabled;
  double job_s = 0.0;
  if (s != nullptr) {
    for (const JobOutcome& j : s->jobs) job_s += j.elapsed_seconds;
  }
  const auto jobs = s == nullptr ? 0.0 : static_cast<double>(s->jobs.size());
  add(report, "api.cache_hit_frac",
      s == nullptr ? 0.0
                   : ratio(static_cast<double>(s->cache.hits),
                           static_cast<double>(s->cache.hits + s->cache.misses)),
      "ratio");
  add(report, "api.cache_corrupt",
      s == nullptr ? 0.0 : static_cast<double>(s->cache.corrupt), "count");
  add(report, "api.runner_job_ms", pool ? ratio(job_s * 1e3, jobs) : 0.0, "ms");
  add(report, "api.runner_idle_frac",
      pool ? 1.0 - ratio(job_s, static_cast<double>(s->threads) *
                                    s->elapsed_seconds)
           : 0.0,
      "ratio");
  const bool dist = s != nullptr && s->dispatch_enabled;
  const deproto::api::DispatchStats d = dist ? s->dispatch
                                             : deproto::api::DispatchStats{};
  double busy_s = 0.0;
  for (const double b : d.worker_busy_seconds) busy_s += b;
  add(report, "dist.jobs_dispatched", static_cast<double>(d.jobs_dispatched),
      "count");
  add(report, "dist.retry_frac",
      ratio(static_cast<double>(d.jobs_retried),
            static_cast<double>(d.jobs_dispatched)),
      "ratio");
  add(report, "dist.worker_restarts", static_cast<double>(d.worker_restarts),
      "count");
  add(report, "dist.frames_per_job",
      dist ? ratio(static_cast<double>(d.frames_received), jobs) : 0.0,
      "count");
  add(report, "dist.worker_idle_frac",
      dist ? 1.0 - ratio(busy_s, static_cast<double>(d.workers) *
                                     s->elapsed_seconds)
           : 0.0,
      "ratio");
  add(report, "trace.overhead_frac",
      ratio(traced.wall_s - untraced.wall_s, untraced.wall_s), "ratio");

  const std::string trace_path =
      (std::filesystem::path(o.work_dir) /
       fmt("trace-%s.json", o.workload.c_str()))
          .string();
  if (!tracer.write_chrome(trace_path)) {
    throw std::runtime_error("cannot write " + trace_path);
  }
  report.notes.push_back(shape_note(o));
  report.notes.push_back(fmt(
      "trace: %zu spans over %zu operations -> %s (untraced replay %.3f s, "
      "traced %.3f s)",
      tracer.records().size(), specs.size(), trace_path.c_str(),
      untraced.wall_s, traced.wall_s));
  report.notes.push_back(
      "not reached through public calls: the split of sim.advance into RNG, "
      "visit order, probe path and metrics (one call); the parse inside "
      "ResultCache::load (api.parse_ms times Json::parse + from_json of "
      "fresh dumps instead); dispatcher internals beyond DispatchStats");
  for (const auto& [layer, totals] : tracer.layer_totals()) {
    report.notes.push_back(
        fmt("layer %-6s self %10.3f ms  %6zu spans  %5.1f%% of traced wall",
            layer.c_str(), totals.self_ms, totals.spans,
            100.0 * ratio(totals.self_ms, traced.wall_s * 1e3)));
  }
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sync-1m", "event-10k", "sweep-count", "sweep-dispatch"};
  return names;
}

Report run_workload(const Options& options) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    throw std::invalid_argument("unknown workload " + options.workload);
  }
  std::filesystem::create_directories(options.work_dir);
  return options.trace ? traced_run(options) : timed_run(options);
}

}  // namespace perfbench
