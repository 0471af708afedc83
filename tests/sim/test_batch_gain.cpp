// Differential tests of the prefix engine's candidate-lane gain scan
// (PrefixEngine::batch_gains).  Every candidate's batched gain must equal a
// reference that replays the candidate alone, instance by instance, with the
// one-element PackedFaultSim::run_element on uncollapsed lane blocks — no
// instance collapsing, block freezing or lane broadcast.  The cases cover
// every packing the scan uses: S = 2 and S = 4 scenario lanes (32 and 16
// candidates per word), S = 32 and S = 64 (2 and 1), and S = 128 (one
// candidate, two blocks per item); address-free and address-reading
// (decoder) items; wait ops; and engines after greedy commit()s.
#include "sim/prefix_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fp/fault_list.hpp"
#include "gen/candidates.hpp"
#include "march/parser.hpp"
#include "sim/simulator.hpp"

namespace mtg {
namespace {

/// The greedy reading of a candidate or commit: only fixed ⇓ sweeps down.
std::uint64_t greedy_down(const MarchElement& element) {
  return element.order() == AddressOrder::Down ? ~std::uint64_t{0} : 0;
}

/// Lane blocks of every instance at the end of a prefix (⇕ elements
/// resolved exactly) followed by greedy commits, advanced one element at a
/// time.
class Reference {
 public:
  Reference(const std::vector<FaultInstance>& instances,
            const MarchTest& prefix, bool both_power_on_states) {
    const CompiledTest compiled = compile_march_test(prefix);
    const std::size_t combos = std::size_t{1} << compiled.any_count;
    const std::size_t total = (both_power_on_states ? 2 : 1) * combos;
    for (const FaultInstance& instance : instances) {
      const PackedFaultSim sim(instance);
      std::vector<PackedFaultSim::Lanes> blocks;
      for (std::size_t base = 0; base < total; base += 64) {
        PackedFaultSim::Lanes lanes;
        sim.power_on_block(lanes, base, total, combos, both_power_on_states);
        for (std::size_t e = 0; e < prefix.elements().size(); ++e) {
          sim.run_element(lanes, compiled.programs[e],
                          element_down_word(prefix.elements()[e],
                                            compiled.any_ordinal[e], base,
                                            combos));
        }
        blocks.push_back(lanes);
      }
      sims_.push_back(sim);
      blocks_.push_back(std::move(blocks));
    }
  }

  void commit(const MarchElement& element) {
    const ElementProgram program =
        lower_element(element, compile_element_trace(element));
    for (std::size_t i = 0; i < sims_.size(); ++i) {
      for (PackedFaultSim::Lanes& lanes : blocks_[i]) {
        sims_[i].run_element(lanes, program, greedy_down(element));
      }
    }
  }

  /// (instance, scenario) pairs the candidate newly detects.
  std::size_t gain(const MarchElement& element,
                   const ElementProgram& program) const {
    std::size_t g = 0;
    for (std::size_t i = 0; i < sims_.size(); ++i) {
      for (PackedFaultSim::Lanes lanes : blocks_[i]) {
        g += lane_popcount(
            sims_[i].run_element(lanes, program, greedy_down(element)));
      }
    }
    return g;
  }

 private:
  std::vector<PackedFaultSim> sims_;
  std::vector<std::vector<PackedFaultSim::Lanes>> blocks_;
};

/// Scores `pool` in consecutive batches of batch_width() (mixing ⇑ and ⇓
/// candidates in one word) and compares every gain with the reference.
/// Returns the number of candidates with a nonzero gain.
std::size_t expect_gains_match(const PrefixEngine& engine,
                               const Reference& reference,
                               const std::vector<MarchElement>& pool,
                               const std::string& label) {
  std::vector<ElementTrace> traces;
  for (const MarchElement& element : pool) {
    traces.push_back(compile_element_trace(element));
  }
  const std::size_t width = engine.batch_width();
  std::size_t mismatches = 0;
  std::size_t positive = 0;
  std::vector<PrefixEngine::Candidate> batch;
  std::vector<std::size_t> gains;
  for (std::size_t begin = 0; begin < pool.size(); begin += width) {
    const std::size_t count = std::min(width, pool.size() - begin);
    batch.clear();
    for (std::size_t k = 0; k < count; ++k) {
      batch.push_back({&pool[begin + k], &traces[begin + k]});
    }
    gains.assign(count, ~std::size_t{0});
    engine.batch_gains(batch.data(), count, gains.data());
    for (std::size_t k = 0; k < count; ++k) {
      const MarchElement& element = pool[begin + k];
      const std::size_t expected = reference.gain(
          element, lower_element(element, traces[begin + k]));
      positive += expected > 0 ? 1 : 0;
      if (gains[k] != expected && ++mismatches <= 5) {
        ADD_FAILURE() << label << ": " << element.to_string(true)
                      << " (slot " << k << " of " << count << ") batched "
                      << gains[k] << ", reference " << expected;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
  // The one-candidate path the perfbench probe calls agrees too.
  const auto no_abort = [](std::size_t, std::size_t) { return false; };
  for (std::size_t c = 0; c < pool.size(); c += 97) {
    EXPECT_EQ(engine.gain(pool[c], traces[c], 0, no_abort),
              reference.gain(pool[c], lower_element(pool[c], traces[c])))
        << label << ": " << pool[c].to_string(true);
  }
  return positive;
}

struct Case {
  const char* name;
  FaultList list;
};

std::vector<Case> small_lists() {
  return {{"list2", fault_list_2()},
          {"simple", standard_simple_static_faults()},
          {"retention", retention_fault_list()},
          {"decoder", decoder_fault_list(3)}};
}

/// Builds engine + reference, checks, commits `commits` to both, checks
/// again.
void check_with_commits(const FaultList& list, std::size_t n,
                        const MarchTest& prefix, bool both,
                        const std::vector<MarchElement>& pool,
                        const std::vector<MarchElement>& commits,
                        const std::string& label) {
  const std::vector<FaultInstance> instances = instantiate_all(list, n);
  PrefixEngine engine(n, &instances, prefix,
                      PrefixEngine::Options{both, false});
  Reference reference(instances, prefix, both);
  const std::size_t lanes =
      (both ? 2 : 1) << FaultSimulator::any_order_count(prefix);
  ASSERT_EQ(engine.scenario_lanes(), lanes) << label;
  ASSERT_EQ(engine.batch_width(), std::max<std::size_t>(1, 64 / lanes))
      << label;
  EXPECT_GT(expect_gains_match(engine, reference, pool, label), 0u) << label;
  for (const MarchElement& element : commits) {
    engine.commit(element, compile_element_trace(element));
    reference.commit(element);
  }
  expect_gains_match(engine, reference, pool, label + " after commits");
}

std::vector<MarchElement> elements_of(const char* notation) {
  return parse_march_test(notation, "elements").elements();
}

TEST(BatchGain, MatchesPerCandidateReferenceOnSmallLists) {
  const MarchTest seed = parse_march_test("{c(w0)}", "seed");
  for (const Case& c : small_lists()) {
    const bool waits = std::string(c.name) == "retention";
    const std::vector<MarchElement> pool = enumerate_march_elements(5, waits);
    const std::vector<MarchElement> commits = elements_of(
        waits ? "{^(w1,t); v(t,r1,w0); ^(r0,w1)}"
              : "{^(r0,w1); v(r1,w0,r0); ^(r0,w1)}");
    for (const std::size_t n : {2, 3, 6}) {
      for (const bool both : {true, false}) {
        check_with_commits(c.list, n, seed, both, pool, commits,
                           std::string(c.name) + " n=" + std::to_string(n) +
                               (both ? " P=2" : " P=1"));
      }
    }
  }
}

TEST(BatchGain, MatchesPerCandidateReferenceOnListOne) {
  // List #1 needs three cells; n = 3 is the generator's working size.
  const MarchTest seed = parse_march_test("{c(w0)}", "seed");
  const std::vector<MarchElement> pool = enumerate_march_elements(4);
  const std::vector<MarchElement> commits =
      elements_of("{^(r0,w1,r1); ^(r1,w0,r0); v(r0,w1)}");
  for (const bool both : {true, false}) {
    check_with_commits(fault_list_1(), 3, seed, both, pool, commits,
                       both ? "list1 P=2" : "list1 P=1");
  }
}

TEST(BatchGain, WidePrefixesPackFewerCandidatesPerWord) {
  // A write-free prefix leaves each lane's entry value at its power-on
  // value, so the broadcast must carry per-scenario good-machine values.
  // Five ⇕ elements give S = 32 (P = 1, two candidates per word) and
  // S = 64 (P = 2, one); six give S = 128: one candidate whose items span
  // two blocks — the CEGIS clone's shape, on the same code path.
  const MarchTest no_write = parse_march_test("{c(t)}", "no-write");
  const MarchTest five =
      parse_march_test("{c(w0); c(w0,w1); c(w1); c(w1,w0); c(w1)}", "five");
  const MarchTest six = parse_march_test(
      "{c(w0); c(w0,w1); c(w1); c(w1,w0); c(w0); c(r0,w1)}", "six");
  const std::vector<MarchElement> pool = enumerate_march_elements(4);
  const std::vector<MarchElement> commits = elements_of("{^(r1,w0); v(r0)}");
  for (const MarchTest* prefix : {&no_write, &five, &six}) {
    for (const bool both : {true, false}) {
      for (const Case& c : small_lists()) {
        const std::size_t n = std::string(c.name) == "list2" ? 6 : 3;
        check_with_commits(c.list, n, *prefix, both, pool, commits,
                           std::string(c.name) + " " + prefix->name() +
                               (both ? " P=2" : " P=1"));
      }
    }
  }
}

TEST(BatchGain, RefusesBatchesWiderThanOneWord) {
  const std::vector<FaultInstance> instances =
      instantiate_all(fault_list_2(), 3);
  const PrefixEngine engine(3, &instances,
                            parse_march_test("{c(w0)}", "seed"),
                            PrefixEngine::Options{});
  ASSERT_EQ(engine.batch_width(), 16u);
  const MarchElement element = elements_of("{^(r0)}")[0];
  const ElementTrace trace = compile_element_trace(element);
  const std::vector<PrefixEngine::Candidate> batch(17, {&element, &trace});
  std::vector<std::size_t> gains(17);
  EXPECT_THROW(engine.batch_gains(batch.data(), 17, gains.data()), Error);
  EXPECT_THROW(engine.batch_gains(batch.data(), 0, gains.data()), Error);
}

}  // namespace
}  // namespace mtg
