// table1-gen: the paper's Table 1 generations.
//
// One operation generates march tests for List #1, List #2 and a seeded
// half of List #1's linked faults (written as 'faultlist v1' text and
// parsed, so a change tuned to the two fixed lists meets a list it has not
// seen).  The phase-A gain scan dominates; the service and store are idle.
#include <algorithm>
#include <numeric>

#include "format/fault_list_text.hpp"
#include "gen/candidates.hpp"
#include "gen/generator.hpp"
#include "march/parser.hpp"
#include "sim/packed_engine.hpp"
#include "sim/prefix_sim.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mtg;

// The tests the generator is known to produce for the two fixed lists.
constexpr const char* kList1Test =
    "{c(w0); ^(r0,w1,r1); ^(r1,w0,r0); ^(r0); v(r0,w1,w1,r1); "
    "v(r1,w1,r1,w0); ^(r0); ^(w0); ^(r0,w0,r0,r0,w1); ^(r1,w0,w0,w1); "
    "^(r1); v(r1,w0,r0,w1); ^(r1)}";
constexpr const char* kList2Test =
    "{c(w0); ^(r0); ^(r0); ^(w1,r1); ^(r1); ^(w1,r1)}";

GeneratorOptions generator_options() {
  GeneratorOptions options;
  // Pinned, never 0: the scan and certification pools each use the four
  // cores of the reference host (the phases run one after the other).
  options.gain_threads = 4;
  options.certify_threads = 4;
  return options;
}

/// The seeded half of List #1's linked faults, as 'faultlist v1' text.
std::string seeded_half_text(std::uint64_t seed) {
  const FaultList list1 = fault_list_1();
  std::vector<std::size_t> order(list1.linked.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  order.resize(order.size() / 2);
  std::sort(order.begin(), order.end());
  FaultList half;
  for (const std::size_t i : order) half.linked.push_back(list1.linked[i]);
  return to_canonical_string(half);
}

struct Inputs {
  std::vector<FaultList> lists;  // List #1, List #2, the seeded half
  MarchTest expected_list1;
  MarchTest expected_list2;
};

/// The per-operation work counters that must repeat exactly.
struct Counters {
  std::size_t rounds = 0;
  std::size_t candidate_pool = 0;
  std::size_t minimize_trials = 0;
  std::size_t minimize_element_replays = 0;
  std::size_t complexity = 0;
  std::size_t static_resolved = 0;
  std::size_t faults = 0;

  bool operator==(const Counters& o) const {
    return rounds == o.rounds && candidate_pool == o.candidate_pool &&
           minimize_trials == o.minimize_trials &&
           minimize_element_replays == o.minimize_element_replays &&
           complexity == o.complexity && static_resolved == o.static_resolved;
  }
};

struct Operation {
  double wall_s = 0;
  std::vector<GenerationResult> results;
  Counters counters;
  double phase_a_s = 0, cert_prep_s = 0, phase_c_s = 0, static_s = 0;
};

Operation generate_all(const std::vector<FaultList>& lists, Tracer& tracer,
                       long op) {
  Operation operation;
  operation.wall_s = time_s([&] {
    Span root(tracer, "bench", "generate lists", op);
    for (const FaultList& list : lists) {
      Span call(tracer, "gen", "generate_march_test", op);
      operation.results.push_back(
          generate_march_test(list, generator_options()));
    }
  });
  for (std::size_t i = 0; i < lists.size(); ++i) {
    const GenerationStats& stats = operation.results[i].stats;
    Counters& c = operation.counters;
    c.rounds += stats.greedy_rounds;
    c.candidate_pool += stats.candidate_pool;
    c.minimize_trials += stats.minimize_trials;
    c.minimize_element_replays += stats.minimize_element_replays;
    c.complexity += operation.results[i].test.complexity();
    c.static_resolved += stats.static_resolved_faults;
    c.faults += lists[i].size();
    operation.phase_a_s += stats.phase_a_seconds;
    operation.cert_prep_s += stats.cert_prep_seconds;
    operation.phase_c_s += stats.phase_c_seconds;
    operation.static_s += stats.static_seconds;
  }
  return operation;
}

/// A round-0 gain scan of the whole candidate pool over List #1 at n=3:
/// the phase-A kernel on its own.  Returns the scan's wall time in ms.
double prefix_gain_scan(const FaultList& list1, std::size_t& evals,
                        std::size_t& total_gain) {
  const MarchTest prefix("prefix", {MarchElement(AddressOrder::Any, {Op::W0})});
  const PrefixEngine engine(3, instantiate_all(list1, 3), prefix,
                            PrefixEngine::Options{});
  const std::vector<MarchElement> pool = enumerate_march_elements(6);
  std::vector<ElementTrace> traces;
  for (const MarchElement& element : pool) {
    traces.push_back(compile_element_trace(element));
  }
  const std::size_t remaining = engine.undetected_scenarios();
  evals = 0;
  total_gain = 0;
  return 1000 * time_s([&] {
    for (std::size_t c = 0; c < pool.size(); ++c) {
      const std::optional<Bit> entry = pool[c].required_entry_value();
      if (entry.has_value() && *entry != Bit::Zero) continue;
      ++evals;
      total_gain += engine.gain(pool[c], traces[c], remaining,
                                [](std::size_t, std::size_t) { return false; });
    }
  });
}

}  // namespace

void run_table1_gen(const RunConfig& config, Tracer& tracer, Outcome& out) {
  const std::string half_text = seeded_half_text(config.seed);

  Inputs in;
  timed_setup(out, tracer, [&](SetupLayers& layers) {
    in = Inputs{};
    {
      Timed call(tracer, "fp", "fault_list_1", &layers.list_build_ms);
      in.lists.push_back(fault_list_1());
    }
    {
      Timed call(tracer, "fp", "fault_list_2", &layers.list_build_ms);
      in.lists.push_back(fault_list_2());
    }
    {
      Timed call(tracer, "format", "parse_fault_list_text",
                 &layers.format_parse_ms);
      in.lists.push_back(parse_fault_list_text(half_text, "seeded-half"));
    }
    {
      Timed call(tracer, "march", "parse_march_test", &layers.march_parse_ms);
      in.expected_list1 = parse_march_test(kList1Test);
      in.expected_list2 = parse_march_test(kList2Test);
    }
    for (const MarchTest* test : {&in.expected_list1, &in.expected_list2}) {
      Timed call(tracer, "march", "compile_march_test",
                 &layers.march_compile_ms);
      compile_march_test(*test);
      ++layers.compiles;
    }
  });

  std::vector<Operation> ops;
  const Clock::time_point start = Clock::now();
  while (ops.empty() ||
         std::chrono::duration<double>(Clock::now() - start).count() <
             config.seconds) {
    ops.push_back(generate_all(in.lists, tracer, static_cast<long>(ops.size())));
  }

  // Outputs: every generation covers its list, the fixed lists reproduce
  // the known tests, and every operation repeats the first exactly.
  const Operation& first = ops.front();
  for (std::size_t k = 0; k < ops.size(); ++k) {
    for (std::size_t i = 0; i < ops[k].results.size(); ++i) {
      const GenerationResult& result = ops[k].results[i];
      out.check(result.full_coverage && result.uncoverable.empty(),
                "generation " + std::to_string(i) + " misses coverage");
      out.check(result.test == first.results[i].test,
                "generation " + std::to_string(i) + " is not repeatable");
    }
    out.check(ops[k].counters == first.counters,
              "generation work counters differ between operations");
  }
  out.check(first.results[0].test == in.expected_list1,
            "List #1 test is not the known 33n test: " +
                first.results[0].test.to_string(true));
  out.check(first.results[1].test == in.expected_list2,
            "List #2 test is not the known 8n test: " +
                first.results[1].test.to_string(true));
  // Independent re-certification at the certify size.
  for (std::size_t i = 0; i < in.lists.size(); ++i) {
    const GenerationResult& result = first.results[i];
    SimulatorOptions sim;
    sim.memory_size = generator_options().certify_memory_size;
    sim.coverage_threads = 4;
    CoverageReport report =
        evaluate_coverage(FaultSimulator(sim), result.test, in.lists[i]);
    // The generator names its test only after certifying it.
    report.test_name = result.certification.test_name;
    out.check(report.full_coverage() &&
                  report_bytes(report) == report_bytes(result.certification),
              "re-certification of generation " + std::to_string(i) +
                  " disagrees with the generator's report");
  }

  const Counters& c = first.counters;
  out.exact["gen.rounds"] = c.rounds;
  out.exact["gen.minimize_trials"] = c.minimize_trials;
  out.exact["gen.minimize_element_replays"] = c.minimize_element_replays;
  out.exact["gen.complexity"] = c.complexity;

  std::vector<double> wall, phase_a, cert_prep, phase_c, static_s;
  for (const Operation& op : ops) {
    wall.push_back(op.wall_s);
    phase_a.push_back(op.phase_a_s);
    cert_prep.push_back(op.cert_prep_s);
    phase_c.push_back(op.phase_c_s);
    static_s.push_back(op.static_s);
  }
  // The quality figure sums the two fixed lists only: the seeded half's
  // complexity changes with the seed, which would blur a regression.
  const std::size_t seeded_complexity = first.results[2].test.complexity();
  Metrics& m = out.metrics;
  m.set_median("gen_wall_s", wall, "s");
  m.set("gen_complexity_n",
        static_cast<double>(c.complexity - seeded_complexity), "n");
  if (!config.trace) return;

  m.set("gen.seeded_complexity_n", static_cast<double>(seeded_complexity),
        "n");
  m.set_median("gen.phase_a_s", phase_a, "s");
  m.set_median("gen.cert_prep_s", cert_prep, "s");
  m.set_median("gen.phase_c_s", phase_c, "s");
  m.set("gen.rounds", static_cast<double>(c.rounds), "count");
  m.set("gen.candidate_pool", static_cast<double>(c.candidate_pool), "count");
  m.set("gen.minimize_trials", static_cast<double>(c.minimize_trials),
        "count");
  m.set("gen.minimize_element_replays",
        static_cast<double>(c.minimize_element_replays), "count");
  m.set_median("analysis.static_s", static_s, "s");
  m.set("analysis.static_served", static_cast<double>(c.static_resolved),
        "count");
  m.set("analysis.static_attempted", static_cast<double>(c.faults), "count");
  m.set("analysis.static_served_frac",
        static_cast<double>(c.static_resolved) / static_cast<double>(c.faults),
        "ratio");
  report_layer_split(out, tracer);

  // Single-layer probes, outside the end-to-end window.
  std::vector<double> candidates_ms;
  for (int i = 0; i < 5; ++i) {
    candidates_ms.push_back(
        1000 * time_s([] { enumerate_march_elements(6); }));
  }
  m.set_median("gen.candidates_ms", candidates_ms, "ms");
  // One scan: it runs on one thread and takes about as long as a whole
  // List #1 generation.
  std::size_t evals = 0, gain_total = 0;
  m.set("sim.prefix_gain_ms", prefix_gain_scan(in.lists[0], evals, gain_total),
        "ms");
  m.set("sim.prefix_gain_evals", static_cast<double>(evals), "count");
  out.exact["sim.prefix_gain_total"] = gain_total;
}

void probe_generation(Outcome& out) {
  // A fixed quarter of List #1 (every fourth linked fault), 15 times: the
  // median of five moved by a tenth between runs.
  const FaultList list1 = fault_list_1();
  FaultList quarter;
  for (std::size_t i = 0; i < list1.linked.size(); i += 4) {
    quarter.linked.push_back(list1.linked[i]);
  }
  std::vector<double> wall;
  std::size_t complexity = 0;
  for (int i = 0; i < 15; ++i) {
    GenerationResult result;
    wall.push_back(time_s(
        [&] { result = generate_march_test(quarter, generator_options()); }));
    out.check(result.full_coverage, "probe generation misses coverage");
    complexity = result.test.complexity();
  }
  out.metrics.set_median("gen_wall_s", wall, "s");
  out.metrics.set("gen_complexity_n", static_cast<double>(complexity), "n");
}

}  // namespace perfbench
