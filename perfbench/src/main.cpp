// perfbench — the repo benchmark's binary (see ../README.md).
//
//   perfbench --workload <table1-gen|list1-sweep|matrix-open> --seed <n>
//             --seconds <s> --trace <0|1> --out-dir <dir> [--counters <file>]
//   perfbench --workload matrix-open --capacity --seed <n> --out-dir <dir>
//
// Prints one line per metric, then, as the last line, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones.  Exits 0 when every output checked out.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The order and units BENCHMARK.json declares.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ok_frac", "ratio"},
    {"gen_wall_s", "s"},
    {"gen_complexity_n", "n"},
    {"sweep_instances_per_s", "1/s"},
    {"job_latency_p50_ms", "ms"},
    {"job_latency_tail_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"format.parse_ms", "ms"},
    {"march.parse_ms", "ms"},
    {"march.compile_ms", "ms"},
    {"march.compiles", "count"},
    {"fp.list_build_ms", "ms"},
    {"sim.instantiate_ms", "ms"},
    {"sim.instances", "count"},
    {"sim.instantiate_ns_per_instance", "ns"},
    {"sim.signature_classes", "count"},
    {"sim.class_ratio", "ratio"},
    {"sim.evaluate_ms", "ms"},
    {"sim.evaluate_ns_per_instance_element", "ns"},
    {"sim.prefix_gain_ms", "ms"},
    {"sim.prefix_gain_evals", "count"},
    {"gen.phase_a_s", "s"},
    {"gen.cert_prep_s", "s"},
    {"gen.phase_c_s", "s"},
    {"gen.rounds", "count"},
    {"gen.candidate_pool", "count"},
    {"gen.minimize_trials", "count"},
    {"gen.minimize_element_replays", "count"},
    {"gen.candidates_ms", "ms"},
    {"gen.seeded_complexity_n", "n"},
    {"analysis.static_s", "s"},
    {"analysis.static_report_ms", "ms"},
    {"analysis.static_served", "count"},
    {"analysis.static_attempted", "count"},
    {"analysis.static_served_frac", "ratio"},
    {"service.queue_ms_p50", "ms"},
    {"service.queue_ms_tail", "ms"},
    {"service.run_ms_p50", "ms"},
    {"service.run_ms_tail", "ms"},
    {"service.compiled_cache_hits", "count"},
    {"service.compiled_cache_misses", "count"},
    {"service.compiled_cache_hit_ratio", "ratio"},
    {"service.instances_cache_hits", "count"},
    {"service.instances_cache_misses", "count"},
    {"service.instances_cache_hit_ratio", "ratio"},
    {"service.submit_late_ms", "ms"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.saves", "count"},
    {"store.save_failures", "count"},
    {"store.hit_ratio", "ratio"},
    {"store.save_ms", "ms"},
    {"store.load_ms", "ms"},
    {"common.pool_start_ms", "ms"},
    {"format.self_ms", "ms"},
    {"march.self_ms", "ms"},
    {"fp.self_ms", "ms"},
    {"sim.self_ms", "ms"},
    {"gen.self_ms", "ms"},
    {"analysis.self_ms", "ms"},
    {"service.self_ms", "ms"},
    {"store.self_ms", "ms"},
    {"common.self_ms", "ms"},
    {"bench.self_ms", "ms"},
    {"trace.e2e_ms", "ms"},
    {"trace.layer_sum_frac", "ratio"},
    {"trace.spans", "count"},
    {"trace.untraced_op", "cost"},
    {"trace.traced_op", "cost"},
    {"trace.overhead_frac", "ratio"},
};

struct Args {
  std::string workload;
  RunConfig config;
  std::string counters_path;
  bool capacity = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <table1-gen|list1-sweep|"
               "matrix-open> --seed <n> --seconds <s> --trace <0|1> "
               "--out-dir <dir> [--counters <file>] [--capacity]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--capacity") {
      args.capacity = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.config.trace = value == "1";
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      } else if (flag == "--out-dir") {
        args.config.out_dir = value;
      } else if (flag == "--counters") {
        args.counters_path = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.config.out_dir.empty()) usage("--out-dir is required");
  if (!(args.config.seconds > 0)) usage("--seconds must be positive");
  return args;
}

using WorkloadFn = void (*)(const RunConfig&, Tracer&, Outcome&);

WorkloadFn workload_fn(const std::string& name) {
  if (name == "table1-gen") return run_table1_gen;
  if (name == "list1-sweep") return run_list1_sweep;
  if (name == "matrix-open") return run_matrix_open;
  usage("unknown workload '" + name + "'");
}

/// The workload's own end-to-end figure, in the direction "lower is
/// better": the one the tracing overhead is stated on.
double primary_cost(const std::string& workload, const Metrics& metrics) {
  if (workload == "table1-gen") return metrics.get("gen_wall_s").value;
  if (workload == "list1-sweep") {
    return 1.0 / metrics.get("sweep_instances_per_s").value;
  }
  return metrics.get("job_latency_p50_ms").value;
}

/// Compares the exact counters with the previous run of the same build,
/// workload, seed and mode (the file run.py names), then records them.
void check_counters(const std::string& path, Outcome& out) {
  if (path.empty()) return;
  std::map<std::string, std::uint64_t> previous;
  {
    std::ifstream in(path);
    std::string name;
    std::uint64_t value = 0;
    while (in >> name >> value) previous[name] = value;
  }
  for (const auto& [name, value] : out.exact) {
    const auto it = previous.find(name);
    out.check(it == previous.end() || it->second == value,
              "exact counter " + name + " changed from " +
                  (it == previous.end() ? "" : std::to_string(it->second)) +
                  " to " + std::to_string(value) + " for the same seed");
  }
  std::ofstream write(path);
  for (const auto& [name, value] : out.exact) {
    write << name << ' ' << value << '\n';
  }
}

int run(const Args& args) {
  const WorkloadFn workload = workload_fn(args.workload);
  if (args.capacity) {
    std::cout << "saturated capacity: "
              << matrix_open_capacity(args.config) << " jobs/s\n";
    return 0;
  }

  Outcome out;
  Tracer tracer(args.config.trace);
  if (!args.config.trace) {
    // Every workload prints every end-to-end metric; another workload's
    // metrics come from a fixed probe of that workload's operation.  The
    // probes run first, in the fresh process, where they are steadiest.
    if (args.workload != "table1-gen") probe_generation(out);
    if (args.workload != "list1-sweep") probe_sweep(out);
    if (args.workload != "matrix-open") probe_matrix(out);
    Tracer off(false);
    workload(args.config, off, out);
    out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // Half the time untraced, half traced: the gap on the workload's own
    // figure is the tracing overhead.
    RunConfig half = args.config;
    half.seconds /= 2;
    half.trace = false;
    Outcome untraced;
    Tracer off(false);
    workload(half, off, untraced);
    half.trace = true;
    workload(half, tracer, out);
    out.attempted += untraced.attempted;
    out.failed += untraced.failed;
    out.errors.insert(out.errors.end(), untraced.errors.begin(),
                      untraced.errors.end());
    const double before = primary_cost(args.workload, untraced.metrics);
    const double after = primary_cost(args.workload, out.metrics);
    out.metrics.set("trace.untraced_op", before, "cost");
    out.metrics.set("trace.traced_op", after, "cost");
    out.metrics.set("trace.overhead_frac", after / before - 1, "ratio");
    const std::string path = args.config.out_dir + "/" + args.workload +
                             "-seed" + std::to_string(args.config.seed) +
                             ".trace.json";
    out.check(tracer.write_chrome_json(path), "cannot write " + path);
    std::cout << "trace: " << path << "\n";
  }
  check_counters(args.counters_path, out);
  out.metrics.set("ok_frac",
                  out.attempted == 0
                      ? 0.0
                      : 1.0 - static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted),
                  "ratio");

  for (const std::string& error : out.errors) {
    std::cout << "FAILED: " << error << "\n";
  }
  for (const auto& [name, value] : out.exact) {
    std::cout << "counter " << name << " = " << value << "\n";
  }

  std::ostringstream json;
  json.precision(17);
  const bool correct = out.failed == 0 && out.attempted > 0;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << out.attempted
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
  bool first = true;
  const MetricSpec* begin =
      args.config.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricSpec* end =
      args.config.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const MetricSpec* spec = begin; spec != end; ++spec) {
    Metric metric;
    metric.unit = spec->unit;
    if (out.metrics.has(spec->name)) {
      metric = out.metrics.get(spec->name);
    } else if (!args.config.trace) {
      throw std::logic_error(std::string("metric not measured: ") +
                             spec->name);
    }
    std::printf("metric %-40s %.6g %s", spec->name, metric.value,
                spec->unit);
    if (metric.samples > 0) {
      std::printf("  (q1 %.6g, q3 %.6g, n=%zu%s%s)", metric.spread.q1,
                  metric.spread.q3, metric.samples,
                  metric.note.empty() ? "" : ", ", metric.note.c_str());
    }
    std::printf("\n");
    json << (first ? "" : ", ") << json_string(spec->name)
         << ": {\"value\": " << metric.value
         << ", \"unit\": " << json_string(spec->unit) << "}";
    first = false;
  }
  json << "}}";
  std::fflush(stdout);
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
