// deproto-perfbench: runs one benchmark workload through deproto's public
// API, checks every result, and prints its metrics. The last line of
// standard output is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// "end_to_end"); with --trace 1 a separate traced run reports the
// per-layer ones and writes a Chrome trace under --work-dir.
//
//   deproto-perfbench --workload sync-1m --seed 1 --seconds 20 --trace 0
//       [--smoke] [--work-dir DIR] [--commit SHA]
//
// perfbench/run.py builds this binary and forwards its arguments.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--work-dir DIR] [--commit SHA]\n",
               argv0);
}

double load_average() {
  std::ifstream in("/proc/loadavg");
  double one_minute = -1.0;
  in >> one_minute;
  return one_minute;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

/// Prints a double with all its digits, as JSON.
void print_number(double v) { std::printf("%.17g", v); }

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.work_dir = ".bench_build/perfbench-work";
  std::string commit = "unknown";
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if ((v = value()) == nullptr) {
      usage(argv[0]);
      return 2;
    }
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0' && *v != '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        usage(argv[0]);
        return 2;
      }
    } else if (arg == "--trace") {
      const std::string t = v;
      if (t != "0" && t != "1") {
        usage(argv[0]);
        return 2;
      }
      options.trace = t == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = v;
    } else if (arg == "--commit") {
      commit = v;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (!have_workload || !have_seed) {
    usage(argv[0]);
    return 2;
  }
  // deproto-run sits beside this binary (see CMakeLists.txt).
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof self - 1);
  if (len <= 0) {
    std::fprintf(stderr, "error: cannot locate /proc/self/exe\n");
    return 1;
  }
  self[len] = '\0';
  std::string exe(self);
  options.worker_exe = exe.substr(0, exe.rfind('/') + 1) + "deproto-run";

  const int nproc = cpu_count();
  const double load_before = load_average();
  perfbench::Report report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  const double load_after = load_average();
  const bool noisy = load_before > nproc || load_after > nproc;

#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::printf(
      "env: workload=%s seed=%llu trace=%d smoke=%d nproc=%d "
      "load_before=%.2f load_after=%.2f noisy=%s build=%s compiler=\"%s\" "
      "commit=%s\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0, options.smoke ? 1 : 0, nproc, load_before,
      load_after, noisy ? "yes" : "no", PERFBENCH_BUILD_TYPE, compiler,
      commit.c_str());
  if (noisy) {
    std::printf("WARNING: load average exceeded nproc (%d) during the run; "
                "treat its figures as noisy\n",
                nproc);
  }
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              report.correct ? "true" : "false", report.attempted,
              report.failed);
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    print_number(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
