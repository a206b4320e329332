#pragma once

// In-memory span recorder for the benchmark's traced runs. The benchmark
// wraps each call it makes into a library layer (Experiment::resolved,
// artifacts, launch, ExperimentRun::advance, finish, the JSON and cache
// calls) in a Span; spans record name, layer, start, end, parent span and
// the job they belong to, stay in memory, and are written out once as
// Chrome trace-event JSON (open with Perfetto or chrome://tracing).
//
// A null Tracer* disables recording: Span then reads no clock and stores
// nothing, so the untraced replay runs the identical call sequence and
// the difference between the two is the tracing overhead.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Record {
    const char* name = "";
    const char* layer = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index into records(), -1 for a root span
    std::int64_t job = -1;
  };

  /// Per-layer totals: self time is each span's duration minus the part
  /// covered by its direct children.
  struct LayerTotals {
    std::size_t spans = 0;
    double self_ms = 0.0;
  };

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Sum of durations (ms) and call count of every span named `name`.
  struct NameTotals {
    std::size_t calls = 0;
    double total_ms = 0.0;
    [[nodiscard]] double mean_ms() const {
      return calls == 0 ? 0.0 : total_ms / static_cast<double>(calls);
    }
  };
  [[nodiscard]] NameTotals totals(const std::string& name) const;
  [[nodiscard]] std::map<std::string, LayerTotals> layer_totals() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds). Returns
  /// false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  friend class Span;
  std::vector<Record> records_;
  int open_ = -1;  // innermost open span
};

/// RAII span; nests under whichever span of the same Tracer is open.
class Span {
 public:
  Span(Tracer* tracer, const char* name, const char* layer,
       std::int64_t job = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int index_ = -1;
};

/// Monotonic clock in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

}  // namespace perfbench
