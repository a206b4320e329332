#pragma once

// The single entry point for the paper's whole pipeline: an Experiment
// takes a declarative ScenarioSpec and owns the wiring that every caller
// used to hand-roll -- parse/resolve the source system, classify it,
// synthesize the state machine, verify the mean field, stand up the
// simulator backend (sync, event, count, or auto-resolved) with the
// spec's fault plan, run it, and collect a structured, JSON-serializable
// ExperimentResult.
//
//   api::Experiment experiment(api::registry_get("epidemic"));
//   const api::ExperimentResult result = experiment.run();
//   std::ofstream("out.json") << result.to_json().dump(2);
//
// Callers that need mid-run access (convergence-driven loops, targeted
// attacks, live state mutation) use launch() and drive the returned
// ExperimentRun themselves; run() is launch + advance(periods) + finish.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/spec.hpp"
#include "core/synthesis.hpp"
#include "net/net_sim.hpp"
#include "ode/taxonomy.hpp"
#include "sim/count_sim.hpp"
#include "sim/event_sim.hpp"
#include "sim/runtime.hpp"
#include "sim/simulator.hpp"
#include "sim/sync_sim.hpp"

namespace deproto::api {

/// One recorded period: populations at the END of the period whose start
/// time is `time` (so `time + 1` in period units).
struct PeriodPoint {
  double time = 0.0;
  std::vector<std::size_t> counts;
  std::size_t total_alive = 0;
};

struct ConvergenceSummary {
  std::size_t dominant_state = 0;
  double dominant_fraction = 0.0;  // of alive processes at the end
  bool absorbed = false;           // every alive process in dominant_state
  /// Start time of the longest suffix over which the dominant state's
  /// population stayed within 2% of its final value; -1 when empty.
  double settle_time = -1.0;

  friend bool operator==(const ConvergenceSummary&,
                         const ConvergenceSummary&) = default;
};

struct ExperimentResult {
  std::string scenario;
  std::vector<std::string> state_names;
  /// Taxonomy verdicts of the resolved source system (partition witness
  /// not serialized).
  ode::TaxonomyReport taxonomy;
  double p = 1.0;
  bool mean_field_verified = false;
  std::vector<std::string> notes;  // synthesis mapping decisions
  std::string machine_text;        // Figure-3-style rendering

  std::vector<std::size_t> initial_counts;
  std::vector<PeriodPoint> series;  // one point per period (or time unit)
  std::vector<std::size_t> final_counts;
  std::size_t final_alive = 0;

  sim::TokenStats tokens;           // sync, count + net backends; 0 on event
  std::uint64_t probes_total = 0;   // sync, count + net backends; 0 on event
  std::uint64_t messages_sent = 0;     // event + net backends
  std::uint64_t messages_dropped = 0;  // event (synthetic) / net (measured)

  /// Net backend only: the measured network behavior (RTT, observed
  /// loss, reordering, duplicates). Absent on the simulated backends, so
  /// their result JSON is byte-identical to what it was before the net
  /// layer existed.
  std::optional<net::NetStats> net_stats;

  ConvergenceSummary convergence;

  /// Wall-clock seconds Experiment::run() took (launch + advance +
  /// finish); 0 when the result was assembled some other way. Timing, so
  /// it is excluded from the deterministic serialization (below).
  double elapsed_seconds = 0.0;

  /// Populations at period `t`: initial_counts for t == 0, otherwise the
  /// end of period t-1 (exactly what the legacy print loops reported).
  [[nodiscard]] const std::vector<std::size_t>& counts_at(
      std::size_t period) const;

  /// With include_timing, the document carries elapsed_seconds; without
  /// it, two runs of the same ScenarioSpec dump byte-identical JSON (the
  /// determinism contract tests/api/determinism_test.cpp pins down).
  [[nodiscard]] Json to_json(bool include_timing = true) const;
  static ExperimentResult from_json(const Json& j);
};

class Experiment;

/// A launched, steppable experiment: the facade's escape hatch for callers
/// that interleave simulation with inspection or mutation. Valid only
/// while the owning Experiment is alive.
class ExperimentRun {
 public:
  ExperimentRun(ExperimentRun&&) noexcept = default;
  ExperimentRun& operator=(ExperimentRun&&) noexcept = default;

  /// Per-node process table. Per-node backends only: the count backend
  /// has no identities, so this throws SpecError steering callers that
  /// need them (host history, token tracing, targeted mutation by pid) to
  /// backend sync or event.
  [[nodiscard]] sim::Group& group();
  /// The live backend, through the unified fault/scheduling interface:
  /// callers can program mid-run faults without caring which backend the
  /// spec selected.
  [[nodiscard]] sim::Simulator& simulator() { return *simulator_; }
  /// Periods advanced so far.
  [[nodiscard]] std::size_t period() const noexcept { return advanced_; }

  void advance(std::size_t periods);

  /// Streaming series mode, the per-job memory budget for very long runs:
  /// every completed period is converted to a PeriodPoint and handed to
  /// `sink` instead of being retained (neither the simulator's metrics
  /// collector nor the eventual result holds the full series -- a
  /// 10^6-period job costs O(states) per period, not O(periods) trees).
  /// finish() computes the same ConvergenceSummary from a compact columnar
  /// count history and leaves result.series empty; the caller already owns
  /// every point. Must be armed before the first advance(), on the run
  /// object at its final address (the sink is wired to `this`), and a null
  /// sink just discards points after the history is recorded.
  void stream_series(std::function<void(const PeriodPoint&)> sink);

  /// Assemble the structured result from everything recorded so far.
  [[nodiscard]] ExperimentResult finish();

 private:
  friend class Experiment;
  explicit ExperimentRun(Experiment& owner);

  Experiment* owner_;
  std::size_t advanced_ = 0;
  std::vector<std::size_t> initial_counts_;
  // Streaming mode state: per-state count columns + times, the compact
  // history finish() needs for the convergence summary when the full
  // series was streamed away instead of retained.
  bool streaming_ = false;
  std::vector<double> stream_times_;
  std::vector<std::vector<std::size_t>> stream_counts_;  // [state][period]
  // The backend, programmed exclusively through sim::Simulator. The
  // concrete pointers below are non-owning views for backend-specific
  // result stats (token/probe counters vs. network counters).
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<sim::MachineExecutor> executor_;  // sync backend only
  sim::EventSimulator* event_ = nullptr;            // event backend only
  sim::CountSimulator* count_ = nullptr;            // count backend only
  net::NetSimulator* net_ = nullptr;                // net backend only
};

class Experiment {
 public:
  explicit Experiment(ScenarioSpec spec);

  // Launched ExperimentRuns point back at their Experiment, so it must not
  // relocate while a run is live. Store experiments directly (or in a
  // non-relocating container like std::deque), not in a growing vector.
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }

  /// Stage 1 of the pipeline: the resolved source system and its Section 2
  /// classification. Available even when synthesis would fail, so callers
  /// (deproto-synth) can show parse/taxonomy diagnostics first.
  struct Resolved {
    ode::EquationSystem source;    // as resolved, before any auto-rewrite
    ode::TaxonomyReport taxonomy;  // of the resolved source
  };
  /// Resolve + classify. Throws SpecError or ode::ParseError.
  const Resolved& resolved();

  /// Stage 2: everything through synthesis and verification.
  struct Artifacts {
    ode::EquationSystem source;    // as resolved, before any auto-rewrite
    ode::TaxonomyReport taxonomy;  // of the resolved source
    core::SynthesisResult synthesis;
    bool mean_field_verified = false;
  };
  /// Resolve + classify + synthesize + verify. Throws SpecError,
  /// ode::ParseError, or core::SynthesisError.
  const Artifacts& artifacts();

  /// Stand up the configured backend, seeded and with the fault plan
  /// applied, without running any periods yet.
  [[nodiscard]] ExperimentRun launch();

  /// The one-call pipeline: launch, advance spec().periods, finish.
  [[nodiscard]] ExperimentResult run();

 private:
  friend class ExperimentRun;

  ExperimentRun launch_impl();

  ScenarioSpec spec_;
  std::optional<Resolved> resolved_;
  std::optional<Artifacts> artifacts_;
};

}  // namespace deproto::api
