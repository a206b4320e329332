#include "dist/worker.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/experiment.hpp"
#include "api/job_metrics.hpp"
#include "api/json.hpp"
#include "api/spec.hpp"
#include "dist/wire.hpp"

namespace deproto::dist {

namespace {

using api::Json;

/// Accumulates the columnar "series" object of a result document as raw
/// text while points stream past, matching ExperimentResult::to_json's
/// serialization byte for byte (same append_json_number encoder, same
/// compact layout) without ever holding the PeriodPoint tree.
class SeriesTextBuilder {
 public:
  void add(const api::PeriodPoint& point) {
    if (counts_.size() < point.counts.size()) {
      counts_.resize(point.counts.size());
    }
    if (!time_.empty()) {
      time_ += ',';
      alive_ += ',';
      for (std::string& column : counts_) column += ',';
    }
    api::append_json_number(time_, point.time);
    api::append_json_number(alive_, static_cast<double>(point.total_alive));
    for (std::size_t s = 0; s < point.counts.size(); ++s) {
      api::append_json_number(counts_[s],
                              static_cast<double>(point.counts[s]));
    }
  }

  /// The series object with the accumulated columns spliced in raw.
  /// `num_states` pads the counts array when no point ever streamed (a
  /// zero-period run still serializes one empty column per state).
  [[nodiscard]] Json to_json(std::size_t num_states) const {
    std::string columns = "[";
    const std::size_t cols = std::max(counts_.size(), num_states);
    for (std::size_t s = 0; s < cols; ++s) {
      if (s > 0) columns += ',';
      columns += '[';
      if (s < counts_.size()) columns += counts_[s];
      columns += ']';
    }
    columns += ']';
    return Json::object()
        .set("time", Json::raw("[" + time_ + "]"))
        .set("alive", Json::raw("[" + alive_ + "]"))
        .set("counts", Json::raw(std::move(columns)));
  }

 private:
  std::string time_;
  std::string alive_;
  std::vector<std::string> counts_;
};

/// One executed (or replayed) job, ready to frame.
struct JobReport {
  Json header = Json::object();
  std::string body;  // raw result dump; empty when the job failed
};

Json cache_stats_json(const api::CacheStats& stats) {
  return Json::object()
      .set("hits", Json::number(stats.hits))
      .set("misses", Json::number(stats.misses))
      .set("corrupt", Json::number(stats.corrupt))
      .set("stores", Json::number(stats.stores))
      .set("skipped", Json::number(stats.skipped));
}

JobReport execute_job(const WorkerOptions& options, std::size_t job_index,
                      const Json& spec_json) {
  JobReport report;
  report.header.set("job", Json::number(job_index));

  bool ok = false;
  bool cached = false;
  std::string error;
  Json metrics = Json::object();
  const auto start = std::chrono::steady_clock::now();
  try {
    const api::ScenarioSpec spec = api::ScenarioSpec::from_json(spec_json);
    if (options.cache != nullptr) {
      if (std::optional<api::CachedEntry> entry =
              options.cache->load_entry(spec)) {
        report.body = std::move(entry->result_dump);
        metrics = std::move(entry->metrics);
        ok = true;
        cached = true;
      }
    }
    if (!ok) {
      api::Experiment experiment(spec);
      api::ExperimentRun run = experiment.launch();
      // Stream the series into columnar text as it happens: the full
      // PeriodPoint tree never exists in this process, which is the
      // per-job memory budget -- RSS is bounded by the dump text, not by
      // O(periods) of sample objects.
      SeriesTextBuilder series;
      run.stream_series(
          [&series](const api::PeriodPoint& point) { series.add(point); });
      run.advance(spec.periods);
      api::ExperimentResult result = run.finish();
      Json doc = result.to_json(/*include_timing=*/false);
      doc.set("series", series.to_json(result.state_names.size()));
      report.body = doc.dump();
      metrics = api::detail::metrics_to_json(
          api::detail::result_metrics(result));
      if (options.cache != nullptr) {
        options.cache->store_dump(spec, report.body, metrics);
      }
      ok = true;
    }
  } catch (const std::exception& e) {
    ok = false;
    report.body.clear();
    error = e.what();
    if (options.cache != nullptr) options.cache->note_skipped();
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  report.header.set("ok", Json::boolean(ok));
  if (!ok) report.header.set("error", Json::string(error));
  report.header.set("elapsed_seconds", Json::number(elapsed));
  report.header.set("cached", Json::boolean(cached));
  if (ok) report.header.set("metrics", std::move(metrics));
  if (options.cache != nullptr) {
    report.header.set("cache", cache_stats_json(options.cache->stats()));
  }
  return report;
}

/// Emits Heartbeat frames every interval until stopped; shares the
/// transport with the main loop (FdTransport::send is frame-atomic).
class HeartbeatThread {
 public:
  HeartbeatThread(Transport& transport, int interval_ms,
                  const std::atomic<long>& current_job)
      : transport_(transport),
        interval_ms_(interval_ms),
        current_job_(current_job) {
    if (interval_ms_ > 0) thread_ = std::thread([this] { loop(); });
  }

  ~HeartbeatThread() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_));
      if (stop_) return;
      Frame beat;
      beat.type = FrameType::Heartbeat;
      beat.payload = Json::object()
                         .set("job", Json::number(static_cast<double>(
                                         current_job_.load())))
                         .dump();
      transport_.send(beat);  // a dead pipe ends the worker via the main
                              // loop's own send failure; ignore it here
    }
  }

  Transport& transport_;
  int interval_ms_;
  const std::atomic<long>& current_job_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace

int run_worker(const WorkerOptions& options) {
  // A dispatcher that died mid-read must surface as a failed send, not a
  // fatal SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  FdTransport transport(options.read_fd, options.write_fd);
  std::atomic<long> current_job{-1};
  HeartbeatThread heartbeat(transport, options.heartbeat_ms, current_job);

  Frame hello;
  hello.type = FrameType::Hello;
  hello.payload =
      Json::object()
          .set("pid", Json::number(static_cast<double>(::getpid())))
          .set("cache_enabled", Json::boolean(options.cache != nullptr))
          .dump();
  if (!transport.send(hello)) return 1;

  FrameDecoder decoder;
  char buf[64 * 1024];
  while (true) {
    Frame frame;
    std::string error;
    const FrameDecoder::Status status = decoder.next(&frame, &error);
    if (status == FrameDecoder::Status::Corrupt) {
      std::fprintf(stderr, "deproto-run --worker: corrupt input: %s\n",
                   error.c_str());
      return 1;
    }
    if (status == FrameDecoder::Status::NeedMore) {
      const long n = transport.read_some(buf, sizeof(buf));
      if (n == 0) return 0;  // dispatcher closed the pipe: clean exit
      if (n < 0) return 1;
      decoder.feed(buf, static_cast<std::size_t>(n));
      continue;
    }

    if (frame.type == FrameType::Shutdown) return 0;
    if (frame.type != FrameType::Job) {
      std::fprintf(stderr, "deproto-run --worker: unexpected %s frame\n",
                   frame_type_name(frame.type));
      return 1;
    }

    JobReport report;
    try {
      const Json job = Json::parse(frame.payload);
      const std::size_t index = job.at("job").as_size();
      current_job.store(static_cast<long>(index));
      if (options.before_job) options.before_job(index);
      report = execute_job(options, index, job.at("spec"));
    } catch (const std::exception& e) {
      // Unparseable job payload: the dispatcher sent garbage (or a future
      // protocol). Fail loudly; it will reassign and account for us.
      std::fprintf(stderr, "deproto-run --worker: bad job frame: %s\n",
                   e.what());
      return 1;
    }
    current_job.store(-1);

    Frame result;
    result.type = FrameType::Result;
    result.payload = report.header.dump();
    result.payload += '\n';
    result.payload += report.body;
    if (!transport.send(result)) return 1;
  }
}

}  // namespace deproto::dist
