// Ablation of the generator's design choices (README.md, "Generator
// pipeline" and "Substitutions"):
//   * redundancy elimination on/off (the paper's "non-redundant" claim),
//   * working memory size (greedy fidelity vs speed),
//   * candidate element length bound (SO search space).
//
// Fault List #2 is swept fully; Fault List #1 ablates the minimizer only
// (its sweeps dominate runtime on a laptop-class host).
//
// Per-phase wall times (greedy A, persistent-certify-state prep, the
// certification rounds B/B2, minimizer C), certify iterations and dropped
// instance counts are tracked for every run; --json <path|-> writes them as
// a machine-readable summary so the perf trajectory of the generator
// pipeline is diffable across commits.  --quick runs a reduced matrix (CI
// smoke).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fp/fault_list.hpp"
#include "gen/generator.hpp"

namespace {

struct RunRecord {
  std::string label;
  std::string list;
  mtg::GenerationResult result;
};

std::vector<RunRecord>& records() {
  static std::vector<RunRecord> all;
  return all;
}

void run(const char* label, const char* list_name, const mtg::FaultList& list,
         const mtg::GeneratorOptions& options) {
  mtg::GenerationResult result = generate_march_test(list, options);
  const mtg::GenerationStats& s = result.stats;
  std::printf(
      "%-34s %5zun %8.2fs  %6.2f%%  rounds=%zu pool=%zu B+B2=%.4fs%s\n",
      label, result.test.complexity(), s.elapsed_seconds,
      result.certification.fault_coverage_percent(), s.greedy_rounds,
      s.candidate_pool, s.phase_b_seconds + s.phase_b2_seconds,
      result.uncoverable.empty() ? "" : "  (uncoverable reported!)");
  records().push_back(RunRecord{label, list_name, std::move(result)});
}

void write_json(std::FILE* out) {
  std::fprintf(out, "{\n  \"runs\": [\n");
  for (std::size_t i = 0; i < records().size(); ++i) {
    const RunRecord& record = records()[i];
    const mtg::GenerationStats& s = record.result.stats;
    std::fprintf(
        out,
        "    {\"label\": \"%s\", \"list\": \"%s\", \"complexity\": %zu, "
        "\"coverage_percent\": %.2f, \"uncoverable\": %zu,\n"
        "     \"elapsed_s\": %.6f, \"phase_a_s\": %.6f, "
        "\"cert_prep_s\": %.6f, \"phase_b_s\": %.6f, \"phase_c_s\": %.6f, "
        "\"phase_b2_s\": %.6f,\n"
        "     \"greedy_rounds\": %zu, \"certify_iterations\": %zu, "
        "\"certify_instances\": %zu, \"instances_dropped\": %zu, "
        "\"minimize_trials\": %zu, \"minimize_element_replays\": %zu}%s\n",
        record.label.c_str(), record.list.c_str(),
        record.result.test.complexity(),
        record.result.certification.fault_coverage_percent(),
        record.result.uncoverable.size(), s.elapsed_seconds,
        s.phase_a_seconds, s.cert_prep_seconds, s.phase_b_seconds,
        s.phase_c_seconds, s.phase_b2_seconds, s.greedy_rounds,
        s.certify_iterations, s.certify_instances, s.instances_dropped,
        s.minimize_trials, s.minimize_element_replays,
        i + 1 < records().size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mtg;
  const char* json_path = nullptr;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_generation_ablation [--quick] "
                   "[--json <path|->]\n");
      return 2;
    }
  }

  std::printf("%-34s %6s %9s %8s  %s\n", "configuration", "O(n)", "CPU",
              "coverage", "stats");
  std::printf("%s\n", std::string(80, '-').c_str());

  const FaultList list2 = fault_list_2();
  {
    GeneratorOptions options;
    run("L2 default", "list2", list2, options);
  }
  {
    GeneratorOptions options;
    options.minimize = false;
    run("L2 no redundancy elimination", "list2", list2, options);
  }
  if (!quick) {
    for (std::size_t working : {3, 4, 5}) {
      GeneratorOptions options;
      options.working_memory_size = working;
      char label[64];
      std::snprintf(label, sizeof label, "L2 working memory n=%zu", working);
      run(label, "list2", list2, options);
    }
    for (std::size_t len : {4, 5, 6, 7}) {
      GeneratorOptions options;
      options.max_element_length = len;
      char label[64];
      std::snprintf(label, sizeof label, "L2 max element length %zu", len);
      run(label, "list2", list2, options);
    }
  }

  const FaultList list1 = fault_list_1();
  {
    GeneratorOptions options;
    run("L1 default", "list1", list1, options);
  }
  if (!quick) {
    GeneratorOptions options;
    options.minimize = false;
    run("L1 no redundancy elimination", "list1", list1, options);
  }

  if (json_path != nullptr) {
    if (std::strcmp(json_path, "-") == 0) {
      write_json(stdout);
    } else {
      std::FILE* out = std::fopen(json_path, "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", json_path);
        return 1;
      }
      write_json(out);
      std::fclose(out);
      std::printf("JSON summary written to %s\n", json_path);
    }
  }
  return 0;
}
