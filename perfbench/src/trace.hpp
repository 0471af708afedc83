// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around each call into a
// library layer (one layer per src/ module), never from inside the library.
// They stay in memory and are written once, at exit, as Chrome trace-event
// JSON (loads in Perfetto or chrome://tracing).  A layer's self time is the
// duration of its spans minus the part of each span's interval covered by
// the span's children; root spans belong to the harness ("bench" layer).
//
// With tracing off every entry point returns at once, so the untraced run
// measures the same code paths without recording anything.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr std::size_t kNoSpan = ~std::size_t{0};

struct SpanRecord {
  const char* layer = "bench";  ///< src/ module name, or "bench"
  std::string name;             ///< the library call, e.g. "instantiate_all"
  Clock::time_point start;
  Clock::time_point end;
  std::size_t parent = kNoSpan;
  long job = -1;        ///< job / operation id the span belongs to
  unsigned thread = 0;  ///< small per-thread index, for the trace viewer
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }

  /// Records a finished span (times already known); returns its id, or
  /// kNoSpan when tracing is off.
  std::size_t record(SpanRecord span);
  /// Opens a span starting now; close() stamps its end.
  std::size_t open(const char* layer, std::string name, long job,
                   std::size_t parent);
  void close(std::size_t id);

  std::size_t size() const;
  /// Self time per layer, in ms, over every recorded span.
  std::map<std::string, double> self_ms_by_layer() const;
  /// Summed duration of the root spans, in ms: the end-to-end time the
  /// layer self times must add up to.
  double root_ms() const;
  /// Writes the Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;  // guarded by mutex_
};

/// RAII span around one library call.  The parent defaults to the calling
/// thread's innermost open Span.
class Span {
 public:
  Span(Tracer& tracer, const char* layer, std::string name, long job = -1);
  Span(Tracer& tracer, const char* layer, std::string name, long job,
       std::size_t parent);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::size_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::size_t id_ = kNoSpan;
  std::size_t saved_current_ = kNoSpan;
};

}  // namespace perfbench
