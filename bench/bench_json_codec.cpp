// JSON number codec: what one count-backend result costs to print and to
// read back. A count job advances N = 10^5 processes in O(states) work per
// period, so its 400-period result document -- about 2,000 numbers, nearly
// all in the columnar series -- is printed (result cache, JSONL sink, wire
// frame) for roughly as long as it was simulated. This bench pins that
// per-layer cost as time per number so a slower number encoder or parser
// shows up as a ratio against the simulation, not as an end-to-end
// anecdote.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>

#include "api/experiment.hpp"
#include "api/json.hpp"
#include "api/registry.hpp"

namespace {

using deproto::api::Json;

/// Fixed-seed lv-majority on the count backend, 400 periods at N = 10^5.
const deproto::api::ExperimentResult& count_result() {
  static const deproto::api::ExperimentResult result = [] {
    deproto::api::ScenarioSpec spec =
        deproto::api::registry_get("lv-majority-count").scaled_to(100000);
    spec.periods = 400;
    return deproto::api::Experiment(spec).run();
  }();
  return result;
}

std::size_t count_numbers(const Json& j) {
  switch (j.type()) {
    case Json::Type::Number: return 1;
    case Json::Type::Array: {
      std::size_t n = 0;
      for (const Json& e : j.elements()) n += count_numbers(e);
      return n;
    }
    case Json::Type::Object: {
      std::size_t n = 0;
      for (const auto& [key, value] : j.items()) n += count_numbers(value);
      return n;
    }
    default: return 0;
  }
}

/// Time per number of the document (an inverted rate: the console prints
/// it in ns, the JSON output in seconds).
void report(benchmark::State& state, std::size_t numbers, std::size_t bytes) {
  state.counters["numbers"] = static_cast<double>(numbers);
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["time/number"] = benchmark::Counter(
      static_cast<double>(numbers),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_DumpCountResult(benchmark::State& state) {
  const Json doc = count_result().to_json(false);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string text = doc.dump();
    bytes = text.size();
    benchmark::DoNotOptimize(text.data());
  }
  report(state, count_numbers(doc), bytes);
}
BENCHMARK(BM_DumpCountResult)->Unit(benchmark::kMicrosecond);

void BM_ParseCountResult(benchmark::State& state) {
  const std::string text = count_result().to_json(false).dump();
  for (auto _ : state) {
    const Json doc = Json::parse(text);
    benchmark::DoNotOptimize(doc.size());
  }
  report(state, count_numbers(Json::parse(text)), text.size());
}
BENCHMARK(BM_ParseCountResult)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
