// Example: fault-simulate the published march tests against the
// reconstructed fault lists — the calibration experiment of README.md,
// "Substitutions".
//
// Usage: coverage_report [memory_size]
//
// Prints, for each catalog test and each fault list, the fault coverage the
// simulator measures, mirroring the validation flow the paper applies to its
// generated tests (Section 6).
#include <iostream>

#include "common/parse.hpp"
#include "fp/fault_list.hpp"
#include "march/catalog.hpp"
#include "sim/coverage.hpp"

int main(int argc, char** argv) {
  using namespace mtg;

  std::size_t memory_size = 5;
  try {
    if (argc > 1) memory_size = parse_memory_size(argv[1], "memory size");
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  const FaultSimulator simulator(SimulatorOptions{memory_size, true, 10});

  const FaultList list1 = fault_list_1();
  const FaultList list2 = fault_list_2();
  const FaultList simple = standard_simple_static_faults();

  std::cout << "Fault lists (memory size n=" << memory_size << "):\n"
            << "  " << list1.name << ": " << list1.size() << " faults\n"
            << "  " << list2.name << ": " << list2.size() << " faults\n"
            << "  " << simple.name << ": " << simple.size() << " faults\n\n";

  for (const FaultList* list : {&list2, &list1, &simple}) {
    std::cout << "=== " << list->name << " ===\n";
    for (const MarchTest& test : all_catalog_tests()) {
      const CoverageReport report = evaluate_coverage(simulator, test, *list);
      std::cout << report.summary() << "\n";
    }
    std::cout << "\n";
  }
  return 0;
}
