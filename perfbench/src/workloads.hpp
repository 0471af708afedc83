// The benchmark's workloads and the pieces they share.
//
// Each workload makes its inputs from the seed (as text or plain values),
// hands them to the library through its public API, times the calls,
// checks every output and fills an Outcome.  The metric names are the ones
// BENCHMARK.json declares; main.cpp prints them in that order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace mtg {
struct CoverageReport;
}

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< scratch space and result files (inside checkout)
};

/// Everything one run reports.
struct Outcome {
  Metrics metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages
  /// Work counters that must repeat exactly for a given seed; main.cpp
  /// compares them against the previous run of the same build and seed.
  std::map<std::string, std::uint64_t> exact;

  /// Counts one checked operation; a false `ok` counts as a failure.
  void check(bool ok, const std::string& what);
};

using Rng = std::mt19937_64;

/// Wall-clock seconds of fn().
double time_s(const std::function<void()>& fn);

/// A Span around one library call that also adds the call's wall time, in
/// ms, to `*total_ms` (when non-null) — traced or not.
class Timed {
 public:
  Timed(Tracer& tracer, const char* layer, const char* name,
        double* total_ms, long job = -1);
  ~Timed();

  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Span span_;
  double* total_ms_;
  Clock::time_point start_ = Clock::now();
};

/// Time one set-up repetition spent in each layer it calls.
struct SetupLayers {
  double format_parse_ms = 0;
  double march_parse_ms = 0;
  double march_compile_ms = 0;
  double list_build_ms = 0;
  std::size_t compiles = 0;  ///< compile_march_test calls
};

/// The run's set-up, repeated `kSetupRepeats` times: setup_s and the
/// set-up layer metrics are medians over the repetitions (setup() must
/// leave the last repetition's state behind).
inline constexpr int kSetupRepeats = 21;
void timed_setup(Outcome& out, Tracer& tracer,
                 const std::function<void(SetupLayers&)>& setup);

/// Byte image of a report (the sweep store's record encoding), for the
/// byte-for-byte comparisons.
std::string report_bytes(const mtg::CoverageReport& report);

/// Sets the per-layer self times (`<layer>.self_ms`) and the layer-split
/// check (`trace.layer_sum_frac`) from the traced spans; the split counts as
/// one checked operation.
void report_layer_split(Outcome& out, const Tracer& tracer);

// Workloads.  Each fills its own end-to-end metrics (trace off) or its
// per-layer metrics (trace on).
void run_table1_gen(const RunConfig& config, Tracer& tracer, Outcome& out);
void run_list1_sweep(const RunConfig& config, Tracer& tracer, Outcome& out);
void run_matrix_open(const RunConfig& config, Tracer& tracer, Outcome& out);

// Fixed, seed-free probes of each workload's own operation.  Every workload
// prints every end-to-end metric; those that belong to another workload
// come from these probes, run before the workload.
void probe_generation(Outcome& out);  // gen_wall_s, gen_complexity_n
void probe_sweep(Outcome& out);       // sweep_instances_per_s
void probe_matrix(Outcome& out);      // job_latency_p50_ms, job_latency_tail_ms

/// Saturated capacity of the matrix-open job stream (jobs/s), for choosing
/// its fixed open-loop rate.
double matrix_open_capacity(const RunConfig& config);

}  // namespace perfbench
