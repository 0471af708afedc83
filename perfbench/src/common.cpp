#include <chrono>

#include "store/sweep_store.hpp"
#include "workloads.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

double time_s(const std::function<void()>& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Timed::Timed(Tracer& tracer, const char* layer, const char* name,
             double* total_ms, long job)
    : span_(tracer, layer, name, job), total_ms_(total_ms) {}

Timed::~Timed() {
  if (total_ms_ != nullptr) {
    *total_ms_ +=
        std::chrono::duration<double, std::milli>(Clock::now() - start_)
            .count();
  }
}

void timed_setup(Outcome& out, Tracer& tracer,
                 const std::function<void(SetupLayers&)>& setup) {
  std::vector<double> seconds, format, parse, compile, build;
  SetupLayers layers;
  for (int i = 0; i < kSetupRepeats; ++i) {
    layers = SetupLayers{};
    {
      Span root(tracer, "bench", "setup", i);
      seconds.push_back(time_s([&] { setup(layers); }));
    }
    format.push_back(layers.format_parse_ms);
    parse.push_back(layers.march_parse_ms);
    compile.push_back(layers.march_compile_ms);
    build.push_back(layers.list_build_ms);
  }
  out.metrics.set_median("setup_s", seconds, "s");
  out.metrics.set_median("format.parse_ms", format, "ms");
  out.metrics.set_median("march.parse_ms", parse, "ms");
  out.metrics.set_median("march.compile_ms", compile, "ms");
  out.metrics.set("march.compiles", static_cast<double>(layers.compiles),
                  "count");
  out.metrics.set_median("fp.list_build_ms", build, "ms");
}

std::string report_bytes(const mtg::CoverageReport& report) {
  return mtg::SweepStore::encode_record(mtg::SweepKey{}, report);
}

void report_layer_split(Outcome& out, const Tracer& tracer) {
  static const char* const kLayers[] = {
      "format", "march", "fp",      "sim",    "gen",
      "analysis", "service", "store", "common"};
  const std::map<std::string, double> self = tracer.self_ms_by_layer();
  double layers_ms = 0;
  for (const char* layer : kLayers) {
    const auto it = self.find(layer);
    const double ms = it == self.end() ? 0.0 : it->second;
    out.metrics.set(std::string(layer) + ".self_ms", ms, "ms");
    layers_ms += ms;
  }
  const auto bench = self.find("bench");
  out.metrics.set("bench.self_ms", bench == self.end() ? 0.0 : bench->second,
                  "ms");
  const double root_ms = tracer.root_ms();
  const double frac = root_ms > 0 ? layers_ms / root_ms : 0.0;
  out.metrics.set("trace.e2e_ms", root_ms, "ms");
  out.metrics.set("trace.layer_sum_frac", frac, "ratio");
  out.metrics.set("trace.spans", static_cast<double>(tracer.size()), "count");
  // The layers must account for the end-to-end time: what is left is the
  // harness's own glue between calls.
  out.check(frac >= 0.95 && frac <= 1.0 + 1e-9,
            "layer self times add up to " + std::to_string(frac) +
                " of the traced end-to-end time");
}

}  // namespace perfbench
