// list1-sweep: coverage sweeps of the paper's Table 1 tests over List #1.
//
// One operation sweeps one of March SL, March ABL and March RABL (in turn)
// over three seeded memory sizes at cap 256, with no store.  Each point
// builds ~700k fault instances that collapse to 2,736 signature classes:
// instantiation is about two thirds of the time, packed simulation the
// rest, and the instance vectors set the peak memory.  The generator is
// idle.
#include <cmath>
#include <set>
#include <thread>

#include "common/parallel.hpp"
#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "sim/packed_engine.hpp"
#include "sim/sweep.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mtg;

constexpr std::size_t kCap = 256;
/// Pinned, never 0: one thread per sweep point.
constexpr std::size_t kSweepThreads = 3;
/// Faults of List #1 that March SL, March ABL and March RABL cover, at
/// every n >= 64 (cell faults are order-only, so the count is flat in n).
/// ABL and RABL miss 12 and 31 faults of this reconstruction of List #1,
/// which is built from the linking conditions rather than the paper's
/// tables.
constexpr std::size_t kCoveredFaults[] = {2736, 2724, 2705};
/// Scalar cross-checks per sweep point.
constexpr int kScalarSamples = 8;

/// Three memory sizes, log-uniform in [64, 8192].
std::vector<std::size_t> seeded_sizes(std::uint64_t seed) {
  Rng rng(seed);
  std::uniform_real_distribution<double> exponent(std::log(64.0),
                                                  std::log(8192.0));
  std::vector<std::size_t> sizes;
  for (int i = 0; i < 3; ++i) {
    sizes.push_back(static_cast<std::size_t>(std::llround(std::exp(exponent(rng)))));
  }
  return sizes;
}

SweepOptions sweep_options(std::size_t cap) {
  SweepOptions options;
  options.max_instances_per_fault = cap;
  options.threads = kSweepThreads;
  return options;
}

/// One traced sweep point, decomposed into the calls sweep_coverage makes.
struct PointTrace {
  CoverageReport report;
  std::size_t instances = 0;
  double instantiate_ms = 0;
  double evaluate_ms = 0;
};

PointTrace traced_point(Tracer& tracer, const MarchTest& test,
                        const FaultList& list, std::size_t n, long job) {
  PointTrace point;
  Span root(tracer, "bench", "sweep point", job, kNoSpan);
  CompiledTest compiled;
  {
    Timed call(tracer, "march", "compile_march_test", nullptr, job);
    compiled = compile_march_test(test);
  }
  std::vector<FaultInstance> instances;
  {
    Timed call(tracer, "sim", "instantiate_all", &point.instantiate_ms, job);
    instances = instantiate_all(list, n, kCap);
  }
  point.instances = instances.size();
  SimulatorOptions sim;
  sim.memory_size = n;
  sim.coverage_threads = 1;  // as inside sweep_coverage
  CoverageContext context;
  context.compiled = &compiled;
  context.instances = &instances;
  {
    Timed call(tracer, "sim", "evaluate_coverage", &point.evaluate_ms, job);
    point.report = evaluate_coverage(FaultSimulator(sim), test, list, kCap,
                                     nullptr, &context);
  }
  {
    Timed call(tracer, "sim", "free instances", nullptr, job);
    std::vector<FaultInstance>().swap(instances);
  }
  return point;
}

/// Checks sampled instances of `report` against the scalar oracle.
void scalar_cross_check(const CoverageReport& report, const MarchTest& test,
                        const FaultList& list, std::size_t n, Rng& rng,
                        Outcome& out) {
  SimulatorOptions sim;
  sim.memory_size = n;
  const FaultSimulator simulator(sim);
  std::uniform_int_distribution<std::size_t> pick_fault(0, list.size() - 1);
  for (int s = 0; s < kScalarSamples; ++s) {
    const std::size_t f = pick_fault(rng);
    const std::vector<FaultInstance> instances =
        f < list.simple.size()
            ? instantiate(list.simple[f], n, f, kCap)
            : instantiate(list.linked[f - list.simple.size()], n, f, kCap);
    const CoverageEntry& entry = report.entries.at(f);
    const bool counts_match = entry.instances == instances.size();
    bool agrees = counts_match;
    if (counts_match && !instances.empty()) {
      std::uniform_int_distribution<std::size_t> pick(0, instances.size() - 1);
      const bool detected = simulator.detects_scalar(test, instances[pick(rng)]);
      agrees = !(entry.covered && !detected) && !(entry.detected == 0 && detected);
    }
    out.check(agrees, "sweep entry " + std::to_string(f) + " at n=" +
                          std::to_string(n) +
                          " disagrees with the scalar simulator");
  }
}

}  // namespace

void run_list1_sweep(const RunConfig& config, Tracer& tracer, Outcome& out) {
  const std::vector<std::size_t> sizes = seeded_sizes(config.seed);
  const std::vector<std::string> notations = {march_sl().to_string(true),
                                              march_abl().to_string(true),
                                              march_rabl().to_string(true)};
  const std::vector<std::string> names = {"March SL", "March ABL",
                                          "March RABL"};

  FaultList list1;
  std::vector<MarchTest> tests;
  timed_setup(out, tracer, [&](SetupLayers& layers) {
    {
      Timed call(tracer, "fp", "fault_list_1", &layers.list_build_ms);
      list1 = fault_list_1();
    }
    tests.clear();
    for (std::size_t i = 0; i < notations.size(); ++i) {
      Timed call(tracer, "march", "parse_march_test", &layers.march_parse_ms);
      tests.push_back(parse_march_test(notations[i], names[i]));
    }
    for (const MarchTest& test : tests) {
      Timed call(tracer, "march", "compile_march_test",
                 &layers.march_compile_ms);
      compile_march_test(test);
      ++layers.compiles;
    }
  });

  // reports[t][p]: the first report of test t at sweep point p.
  std::vector<std::vector<std::string>> first_bytes(tests.size());
  std::vector<std::vector<CoverageReport>> first_reports(tests.size());
  std::vector<double> instantiate_ms, evaluate_ms;
  double total_instances = 0, total_seconds = 0;
  double instantiate_total_ms = 0, evaluate_total_ms = 0;
  double instance_elements = 0;
  std::size_t op_instances = 0;

  const Clock::time_point start = Clock::now();
  for (std::size_t op = 0;
       op < tests.size() ||
       std::chrono::duration<double>(Clock::now() - start).count() <
           config.seconds;
       ++op) {
    const std::size_t t = op % tests.size();
    const MarchTest& test = tests[t];
    std::vector<CoverageReport> reports(sizes.size());
    std::vector<PointTrace> traced(sizes.size());
    const double seconds = time_s([&] {
      if (!config.trace) {
        Span call(tracer, "sim", "sweep_coverage", static_cast<long>(op));
        std::vector<SweepPoint> points =
            sweep_coverage(test, list1, sizes, sweep_options(kCap));
        for (std::size_t p = 0; p < sizes.size(); ++p) {
          reports[p] = std::move(points[p].report);
        }
        return;
      }
      std::vector<std::thread> threads;
      for (std::size_t p = 0; p < sizes.size(); ++p) {
        threads.emplace_back([&, p] {
          traced[p] = traced_point(tracer, test, list1, sizes[p],
                                   static_cast<long>(op * sizes.size() + p));
        });
      }
      for (std::thread& thread : threads) thread.join();
      for (std::size_t p = 0; p < sizes.size(); ++p) {
        reports[p] = std::move(traced[p].report);
      }
    });

    std::size_t instances = 0;
    for (std::size_t p = 0; p < sizes.size(); ++p) {
      instances += reports[p].instances_total();
      if (config.trace) {
        instantiate_ms.push_back(traced[p].instantiate_ms);
        evaluate_ms.push_back(traced[p].evaluate_ms);
        instantiate_total_ms += traced[p].instantiate_ms;
        evaluate_total_ms += traced[p].evaluate_ms;
        instance_elements += static_cast<double>(traced[p].instances) *
                             static_cast<double>(test.size());
        out.check(traced[p].instances == reports[p].instances_total(),
                  "instantiated and reported instance counts differ");
      }
    }
    out.check(op < tests.size() || instances == op_instances,
              "sweep instance count differs between operations");
    op_instances = instances;
    total_instances += static_cast<double>(instances);
    total_seconds += seconds;

    // Every repetition of a (test, point) must match its first report.
    for (std::size_t p = 0; p < sizes.size(); ++p) {
      const std::string bytes = report_bytes(reports[p]);
      out.check(reports[p].faults_total() == list1.size() &&
                    reports[p].faults_covered() == kCoveredFaults[t],
                "sweep point covers " +
                    std::to_string(reports[p].faults_covered()) + " faults, not " +
                    std::to_string(kCoveredFaults[t]));
      if (first_bytes[t].size() <= p) {
        first_bytes[t].push_back(bytes);
        first_reports[t].push_back(std::move(reports[p]));
      } else {
        out.check(bytes == first_bytes[t][p],
                  "sweep report differs between repetitions");
      }
    }
  }

  // Outputs against the scalar oracle (and, traced, against the
  // undecomposed sweep_coverage call).
  Rng rng(config.seed ^ 0x5ca1ab1eULL);
  for (std::size_t t = 0; t < tests.size(); ++t) {
    for (std::size_t p = 0; p < sizes.size(); ++p) {
      scalar_cross_check(first_reports[t][p], tests[t], list1, sizes[p], rng,
                         out);
    }
    if (config.trace) {
      const std::vector<SweepPoint> points =
          sweep_coverage(tests[t], list1, sizes, sweep_options(kCap));
      for (std::size_t p = 0; p < sizes.size(); ++p) {
        out.check(report_bytes(points[p].report) == first_bytes[t][p],
                  "decomposed sweep point differs from sweep_coverage");
      }
    }
  }
  out.exact["sim.instances"] = op_instances;

  Metrics& m = out.metrics;
  m.set("sweep_instances_per_s", total_instances / total_seconds, "1/s");
  if (!config.trace) return;

  report_layer_split(out, tracer);
  m.set_median("sim.instantiate_ms", instantiate_ms, "ms");
  m.set_median("sim.evaluate_ms", evaluate_ms, "ms");
  m.set("sim.instances", static_cast<double>(op_instances), "count");
  m.set("sim.instantiate_ns_per_instance",
        1e6 * instantiate_total_ms / (total_instances), "ns");
  m.set("sim.evaluate_ns_per_instance_element",
        1e6 * evaluate_total_ms / instance_elements, "ns");

  // Signature classes: instances whose packed simulation is provably
  // identical (same fault, same PackedFaultSim::signature()).
  std::size_t classes = 0, instances = 0;
  for (const std::size_t n : sizes) {
    const std::vector<FaultInstance> all = instantiate_all(list1, n, kCap);
    std::set<std::pair<std::size_t, std::string>> distinct;
    for (const FaultInstance& instance : all) {
      distinct.emplace(instance.fault_index,
                       PackedFaultSim(instance).signature());
    }
    classes += distinct.size();
    instances += all.size();
  }
  m.set("sim.signature_classes", static_cast<double>(classes), "count");
  m.set("sim.class_ratio",
        static_cast<double>(classes) / static_cast<double>(instances),
        "ratio");
  out.exact["sim.signature_classes"] = classes;

  std::vector<double> pool_ms;
  for (int i = 0; i < 50; ++i) {
    pool_ms.push_back(
        1000 * time_s([] { ThreadPool pool(kSweepThreads - 1); }));
  }
  m.set_median("common.pool_start_ms", pool_ms, "ms");
}

void probe_sweep(Outcome& out) {
  // A small fixed List #1 sweep: March SL at three sizes, cap 32, the
  // median rate of 15 sweeps (one rate over six moved by a tenth between
  // runs).
  const FaultList list1 = fault_list_1();
  const MarchTest test = march_sl();
  std::vector<double> rates;
  for (int i = 0; i < 15; ++i) {
    std::vector<SweepPoint> points;
    const double seconds = time_s([&] {
      points = sweep_coverage(test, list1, {64, 256, 4096}, sweep_options(32));
    });
    double instances = 0;
    for (const SweepPoint& point : points) {
      instances += static_cast<double>(point.report.instances_total());
      out.check(point.report.full_coverage(), "probe sweep misses coverage");
    }
    rates.push_back(instances / seconds);
  }
  out.metrics.set_median("sweep_instances_per_s", rates, "1/s");
}

}  // namespace perfbench
