#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

#include "report.hpp"

namespace perfbench {
namespace {

thread_local std::size_t t_current = kNoSpan;

unsigned thread_index() {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned index = next++;
  return index;
}

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Length of the union of [begin, end) intervals, each clipped to
/// [lo, hi).
Clock::duration covered(std::vector<std::pair<Clock::time_point,
                                              Clock::time_point>> intervals,
                        Clock::time_point lo, Clock::time_point hi) {
  std::sort(intervals.begin(), intervals.end());
  Clock::duration total{0};
  Clock::time_point reach = lo;
  for (auto [begin, end] : intervals) {
    begin = std::max(begin, reach);
    end = std::min(end, hi);
    if (end <= begin) continue;
    total += end - begin;
    reach = end;
  }
  return total;
}

}  // namespace

std::size_t Tracer::record(SpanRecord span) {
  if (!enabled_) return kNoSpan;
  span.thread = thread_index();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

std::size_t Tracer::open(const char* layer, std::string name, long job,
                         std::size_t parent) {
  if (!enabled_) return kNoSpan;
  SpanRecord span;
  span.layer = layer;
  span.name = std::move(name);
  span.parent = parent;
  span.job = job;
  span.start = Clock::now();
  span.end = span.start;
  return record(std::move(span));
}

void Tracer::close(std::size_t id) {
  if (id == kNoSpan) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end = now;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const SpanRecord& span : spans_) {
    if (span.parent != kNoSpan) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    self[span.layer] += ms(span.end - span.start -
                           covered(children[i], span.start, span.end));
  }
  return self;
}

double Tracer::root_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0;
  for (const SpanRecord& span : spans_) {
    if (span.parent == kNoSpan) total += ms(span.end - span.start);
  }
  return total;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    const double ts = std::chrono::duration<double, std::micro>(
                          span.start - epoch_).count();
    const double dur = std::chrono::duration<double, std::micro>(
                           span.end - span.start).count();
    std::fprintf(out,
                 "{\"name\": %s, \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %zu, \"parent\": %lld, \"job\": %ld}}%s\n",
                 json_string(span.name).c_str(), span.layer, ts, dur,
                 span.thread, i,
                 span.parent == kNoSpan ? -1LL
                                        : static_cast<long long>(span.parent),
                 span.job, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

Span::Span(Tracer& tracer, const char* layer, std::string name, long job)
    : Span(tracer, layer, std::move(name), job, t_current) {}

Span::Span(Tracer& tracer, const char* layer, std::string name, long job,
           std::size_t parent)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  id_ = tracer_.open(layer, std::move(name), job, parent);
  saved_current_ = t_current;
  t_current = id_;
}

Span::~Span() {
  if (id_ == kNoSpan) return;
  tracer_.close(id_);
  t_current = saved_current_;
}

}  // namespace perfbench
