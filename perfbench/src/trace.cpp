#include "trace.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Span::Span(Tracer* tracer, const char* name, const char* layer,
           std::int64_t job)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Tracer::Record record;
  record.name = name;
  record.layer = layer;
  record.parent = tracer_->open_;
  record.job = job;
  index_ = static_cast<int>(tracer_->records_.size());
  tracer_->records_.push_back(record);
  tracer_->open_ = index_;
  tracer_->records_[index_].start_ns = now_ns();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  Tracer::Record& record = tracer_->records_[index_];
  record.end_ns = now_ns();
  tracer_->open_ = record.parent;
}

Tracer::NameTotals Tracer::totals(const std::string& name) const {
  NameTotals out;
  for (const Record& r : records_) {
    if (name != r.name) continue;
    ++out.calls;
    out.total_ms += static_cast<double>(r.end_ns - r.start_ns) / 1e6;
  }
  return out;
}

std::map<std::string, Tracer::LayerTotals> Tracer::layer_totals() const {
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    LayerTotals& totals = out[r.layer];
    ++totals.spans;
    totals.self_ms +=
        static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) / 1e6;
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    // Names and layers are string literals from the benchmark's own
    // source, so they need no JSON escaping.
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"parent\":%d,\"job\":%lld}}",
                 i == 0 ? "" : ",", r.name, r.layer,
                 static_cast<double>(r.start_ns - origin) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3, i,
                 r.parent, static_cast<long long>(r.job));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
