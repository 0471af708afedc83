// matrix-open: an open loop against one MatrixService.
//
// A single submitter thread sends a seeded job stream at a fixed rate,
// a fifth or less of the service's saturated capacity on the reference
// host, to a service with a SweepStore on a fresh directory and the static
// tier on.
// Jobs are drawn Zipf-skewed over (test, list, n, cap) keys, so repeated
// keys hit the store and the single-flight caches while first sightings
// compute and write the store: the queue, the caches, the static tier and
// store writes beside reads all do work here.  Per-job simulation is
// small.  Latency is timed from each job's due time.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>
#include <tuple>
#include <unistd.h>

#include "analysis/static_analyzer.hpp"
#include "common/error.hpp"
#include "fp/fault_list.hpp"
#include "gen/candidates.hpp"
#include "march/catalog.hpp"
#include "march/parser.hpp"
#include "service/matrix_service.hpp"
#include "sim/packed_engine.hpp"
#include "store/storage.hpp"
#include "store/sweep_store.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mtg;

/// Fixed open-loop rate: a fifth or less of the saturated capacity that
/// `perfbench --workload matrix-open --capacity` measures on the reference
/// host (4 cores; 1,000 to 2,400 jobs/s as the host's load varied).  Near
/// half of it the host's slow spells queued most jobs in some runs and not
/// in others: the median latency moved fourfold between runs.  The rate
/// also bounds memory: the service keeps every job's report.
constexpr double kRateJobsPerS = 200;
/// Random tests beside the 17 catalog ones: (17 + kRandomTests) × 27 keys,
/// against about kNewKeyShare × rate × seconds new keys in a run (240 in a
/// 20 s run).  Past that, jobs only repeat keys.
constexpr std::size_t kRandomTests = 60;
/// Pinned, never 0: service workers; with the submitter, four threads.
constexpr std::size_t kServiceThreads = 3;
/// Zipf exponent of the key popularity.
constexpr double kZipfS = 1.0;
/// Share of jobs that name a key never seen before.  New keys arrive at a
/// steady rate, so the miss load (compute plus store write) is the same
/// over the whole window instead of a cold burst at the start.  Kept small:
/// every new key ends in a store save whose fsync holds the store's lock,
/// and at 15% (of 400 jobs/s) the hits queued behind slow fsyncs in some
/// runs, which moved the median latency by up to a factor of two.
constexpr double kNewKeyShare = 0.06;
/// Every kList1Every-th rank is a List #1 key (while they last), so that a
/// third of the new keys are List #1 misses: about 20 in every window of
/// kTailWindowJobs jobs.
constexpr std::size_t kList1Every = 3;
/// A repeat that draws a List #1 key keeps it with this probability and
/// draws again otherwise, so List #1 hits (≈7 ms each) stay about a ninth
/// of the jobs, as with List #1 on every ninth rank: at a third, the
/// service kept 1.5 GB of reports and the median latency fell among them
/// in some runs.
constexpr double kList1RepeatKeep = 0.25;
/// job_latency_tail_ms is the tail of each window of this many timed jobs
/// (5 s of due time), median over the windows.  A window's ten slowest jobs
/// are then about half of its List #1 misses, a dense part of the
/// distribution; over a whole run they were its ten slowest List #1 misses
/// of about twenty, whichever tests the seed put there, and the figure
/// moved by half between runs.
constexpr std::size_t kTailWindowJobs = 1000;
/// A key recurs only after this long (in due time), so that its first job
/// has completed and every later one is a store hit: the cache and store
/// counters are then a function of the stream alone and repeat exactly.
constexpr double kRepeatGapS = 0.5;
/// Keys computed before the window (untimed), so that repeats can start at
/// once instead of the window opening with a burst of misses.
constexpr std::size_t kWarmupKeys = 50;

/// KeyShape::list of List #1 (see build_lists).
constexpr std::size_t kList1 = 4;

struct KeyShape {
  std::size_t list = 0;  // index into the lists
  std::size_t n = 0;
  std::size_t cap = 0;
};

/// The (list, n, cap) shapes.  List #1 runs at a small cap, 16: its jobs
/// are the heaviest (≈7 ms hits, 20-90 ms misses) and its misses outnumber
/// ten in every tail window, so they set the tail latency rather than the
/// host's occasional 20-30 ms stalls.
std::vector<KeyShape> key_shapes() {
  std::vector<KeyShape> shapes;
  for (const std::size_t n : {8, 64, 1024}) {
    for (std::size_t list = 0; list < 4; ++list) {
      for (const std::size_t cap : {64, 256}) shapes.push_back({list, n, cap});
    }
    shapes.push_back({kList1, n, 16});
  }
  return shapes;
}

struct Key {
  std::size_t test = 0;
  KeyShape shape;
};

/// A valid random march test: ⇕(w0) and three to six elements whose entry
/// values chain.
MarchTest random_test(Rng& rng, const std::vector<MarchElement>& pool) {
  for (;;) {
    MarchTest test("", {MarchElement(AddressOrder::Any, {Op::W0})});
    Bit value = Bit::Zero;
    const int length = std::uniform_int_distribution<int>(3, 6)(rng);
    for (int e = 0; e < length; ++e) {
      std::vector<const MarchElement*> fits;
      for (const MarchElement& element : pool) {
        const auto entry = element.required_entry_value();
        if (!entry.has_value() || *entry == value) fits.push_back(&element);
      }
      const MarchElement& pick = *fits[std::uniform_int_distribution<
          std::size_t>(0, fits.size() - 1)(rng)];
      test.append(pick);
      if (const auto final_value = pick.final_value()) value = *final_value;
    }
    if (FaultSimulator::validity_violation(test).empty()) return test;
  }
}

/// The generated inputs: test notations and the job stream.
struct Stream {
  std::vector<std::string> notations;
  std::vector<std::string> names;
  std::vector<Key> keys;  ///< by popularity rank
  /// Key rank of each job: kWarmupKeys warm-up jobs (ranks 0, 1, ...), then
  /// the timed jobs in due order.
  std::vector<std::size_t> jobs;
};

Stream make_stream(std::uint64_t seed, std::size_t job_count, double rate) {
  Stream stream;
  Rng rng(seed);
  for (const MarchTest& test : all_catalog_tests()) {
    stream.notations.push_back(test.to_string(true));
    stream.names.push_back(test.name());
  }
  const std::vector<MarchElement> pool = enumerate_march_elements(4);
  for (std::size_t i = 0; i < kRandomTests; ++i) {
    stream.notations.push_back(random_test(rng, pool).to_string(true));
    stream.names.push_back("random-" + std::to_string(i));
  }
  // Key j takes shape j % S and every kList1Every-th rank takes the next
  // List #1 key, so every seed sees the same shape mix at every popularity
  // level; the seed picks which test sits at each rank.
  const std::vector<KeyShape> shapes = key_shapes();
  const std::size_t tests = stream.notations.size();
  std::vector<std::size_t> perm(tests);
  for (std::size_t i = 0; i < tests; ++i) perm[i] = i;
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<Key> list1_keys, other_keys;
  for (std::size_t j = 0; j < shapes.size() * tests; ++j) {
    const std::size_t s = j % shapes.size();
    const Key key{perm[(j / shapes.size() + s) % tests], shapes[s]};
    (key.shape.list == kList1 ? list1_keys : other_keys).push_back(key);
  }
  const std::size_t key_count = list1_keys.size() + other_keys.size();
  for (std::size_t a = 0, b = 0; a + b < key_count;) {
    const bool list1 = b == other_keys.size() ||
                       (a < list1_keys.size() &&
                        stream.keys.size() % kList1Every == kList1Every - 1);
    stream.keys.push_back(list1 ? list1_keys[a++] : other_keys[b++]);
  }
  // Job i names a new key (the next rank) with probability kNewKeyShare,
  // otherwise it repeats a key drawn Zipf-skewed by rank among the keys
  // first seen at least kRepeatGapS ago.
  std::vector<double> cdf;
  double total = 0;
  for (std::size_t r = 0; r < stream.keys.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cdf.push_back(total);
  }
  std::bernoulli_distribution new_key(kNewKeyShare);
  std::bernoulli_distribution keep_list1(kList1RepeatKeep);
  const std::size_t gap = static_cast<std::size_t>(kRepeatGapS * rate) + 1;
  std::vector<std::size_t> first_job(kWarmupKeys, 0);  // by rank
  std::size_t eligible = kWarmupKeys;  // ranks that may repeat
  for (std::size_t r = 0; r < kWarmupKeys; ++r) stream.jobs.push_back(r);
  for (std::size_t i = 0; i < job_count; ++i) {
    while (eligible < first_job.size() && first_job[eligible] + gap <= i) {
      ++eligible;
    }
    const bool fresh = new_key(rng);
    if ((fresh || eligible == 0) && first_job.size() < stream.keys.size()) {
      stream.jobs.push_back(first_job.size());
      first_job.push_back(i);
      continue;
    }
    require(eligible > 0, "matrix-open: key universe too small");
    std::uniform_real_distribution<double> uniform(0, cdf[eligible - 1]);
    std::size_t r = 0;
    do {
      r = std::min(eligible - 1,
                   static_cast<std::size_t>(
                       std::upper_bound(cdf.begin(), cdf.begin() + eligible,
                                        uniform(rng)) -
                       cdf.begin()));
    } while (stream.keys[r].shape.list == kList1 && !keep_list1(rng));
    stream.jobs.push_back(r);
  }
  return stream;
}

/// What the program builds from the stream in set-up.
struct Program {
  std::vector<MarchTest> tests;
  std::vector<std::shared_ptr<const FaultList>> lists;
};

/// The built-in lists, indexed by KeyShape::list.
std::vector<std::shared_ptr<const FaultList>> build_lists() {
  return {std::make_shared<const FaultList>(fault_list_2()),
          std::make_shared<const FaultList>(standard_simple_static_faults()),
          std::make_shared<const FaultList>(retention_fault_list()),
          std::make_shared<const FaultList>(decoder_fault_list()),
          std::make_shared<const FaultList>(fault_list_1())};
}

std::vector<MatrixJob> make_jobs(const Stream& stream,
                                 const Program& program) {
  std::vector<MatrixJob> jobs;
  for (const std::size_t r : stream.jobs) {
    const Key& key = stream.keys[r];
    MatrixJob job;
    job.test = program.tests[key.test];
    job.list = program.lists[key.shape.list];
    job.memory_size = key.shape.n;
    job.max_instances_per_fault = key.shape.cap;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

struct StreamRun {
  std::vector<MatrixJobResult> results;  ///< every job, by job id
  std::vector<Clock::time_point> due;    ///< every job
  std::vector<Clock::time_point> submitted;
  std::vector<Clock::time_point> done;
  std::vector<double> latency_ms;  ///< timed jobs: due → terminal
  std::vector<double> late_ms;     ///< timed jobs: due → submitted
};

/// Submits the first `warmup` jobs at once and waits for them, then
/// submits the rest at due times start + k * period (all at `start` for a
/// zero period), and drains the service.
StreamRun run_stream(MatrixService& service,
                     std::vector<std::atomic<std::int64_t>>& done_ns,
                     const std::vector<MatrixJob>& jobs, std::size_t warmup,
                     double period_s) {
  StreamRun run;
  for (std::size_t i = 0; i < warmup; ++i) {
    run.due.push_back(Clock::now());
    run.submitted.push_back(run.due.back());
    service.submit(jobs[i]);
  }
  for (std::size_t i = 0; i < warmup; ++i) service.wait(i);
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = warmup; i < jobs.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(period_s * (i - warmup)));
    // Sleep to just short of the due time, then yield until it: a plain
    // sleep overshoots by the timer slack, which would show as lateness.
    std::this_thread::sleep_until(due - std::chrono::microseconds(200));
    while (Clock::now() < due) std::this_thread::yield();
    run.due.push_back(due);
    run.submitted.push_back(Clock::now());
    service.submit(jobs[i]);
  }
  run.results = service.drain();
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    run.done.push_back(Clock::time_point(
        Clock::duration(done_ns[i].load(std::memory_order_acquire))));
    if (i < warmup) continue;
    run.latency_ms.push_back(ms(run.done[i] - run.due[i]));
    run.late_ms.push_back(ms(run.submitted[i] - run.due[i]));
  }
  return run;
}

MatrixServiceOptions service_options(
    SweepStore* store, std::vector<std::atomic<std::int64_t>>& done_ns) {
  MatrixServiceOptions options;
  options.threads = kServiceThreads;
  options.queue_capacity = 1 << 16;  // open loop: the queue may grow
  options.store = store;
  options.static_prefilter = true;
  options.on_result = [&done_ns](const MatrixJobResult& result) {
    if (result.job_id < done_ns.size()) {
      done_ns[result.job_id].store(Clock::now().time_since_epoch().count(),
                                   std::memory_order_release);
    }
  };
  return options;
}

SweepKey sweep_key(const MatrixJob& job) {
  SweepKey key;
  key.test_hash = stable_hash(job.test);
  key.list_hash = stable_hash(*job.list);
  key.memory_size = job.memory_size;
  key.max_instances_per_fault = job.max_instances_per_fault;
  return key;
}

/// A store directory inside the run's scratch space, removed on exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& path) : path_(path) {
    std::filesystem::remove_all(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Timings of one distinct key's calls, replayed alone after the window.
struct Replay {
  double load_hit_ms = 0, load_miss_ms = 0, save_ms = 0;
  double static_ms = 0, compile_ms = 0, instantiate_ms = 0, evaluate_ms = 0;
  bool served_statically = false;
  std::size_t instances = 0;
  std::string solo_bytes;  ///< solo evaluate_coverage of the job
};

/// Compiled tests and instance sets shared by the replays, each timed once,
/// as the service's caches share them.
struct ReplayCache {
  std::map<std::size_t, std::pair<CompiledTest, double>> compiled;
  std::map<std::tuple<std::size_t, std::size_t, std::size_t>,
           std::pair<std::vector<FaultInstance>, double>>
      instances;
};

Replay replay_key(const MatrixJob& job, const Key& key, ReplayCache& cache,
                  SweepStore& store, bool timed) {
  Replay replay;
  SimulatorOptions sim;
  sim.memory_size = job.memory_size;
  sim.coverage_threads = timed ? 1 : 4;
  const FaultSimulator simulator(sim);
  const auto ms = [](const std::function<void()>& fn) {
    return 1000 * time_s(fn);
  };
  std::optional<CoverageReport> proved;
  replay.static_ms = ms([&] {
    proved = static_coverage_report(job.test, *job.list, job.memory_size,
                                    job.max_instances_per_fault);
  });
  replay.served_statically = proved.has_value();
  auto compiled_it = cache.compiled.find(key.test);
  if (compiled_it == cache.compiled.end()) {
    CompiledTest compiled;
    const double took = ms([&] { compiled = compile_march_test(job.test); });
    compiled_it =
        cache.compiled.emplace(key.test, std::make_pair(compiled, took)).first;
  }
  const CompiledTest& compiled = compiled_it->second.first;
  replay.compile_ms = compiled_it->second.second;
  const auto shape = std::make_tuple(key.shape.list, key.shape.n, key.shape.cap);
  auto instances_it = cache.instances.find(shape);
  if (instances_it == cache.instances.end()) {
    std::vector<FaultInstance> instances;
    const double took = ms([&] {
      instances = instantiate_all(*job.list, job.memory_size,
                                  job.max_instances_per_fault);
    });
    instances_it =
        cache.instances.emplace(shape, std::make_pair(std::move(instances), took))
            .first;
  }
  const std::vector<FaultInstance>& instances = instances_it->second.first;
  replay.instantiate_ms = instances_it->second.second;
  replay.instances = instances.size();
  CoverageContext context;
  context.compiled = &compiled;
  context.instances = &instances;
  CoverageReport report;
  replay.evaluate_ms = ms([&] {
    report = evaluate_coverage(simulator, job.test, *job.list,
                               job.max_instances_per_fault, nullptr,
                               &context);
  });
  replay.solo_bytes = report_bytes(report);
  if (timed) {
    const SweepKey record = sweep_key(job);
    CoverageReport loaded;
    replay.load_miss_ms = ms([&] { store.load(record, loaded); });
    replay.save_ms = ms([&] { store.save(record, report); });
    replay.load_hit_ms = ms([&] { store.load(record, loaded); });
  }
  return replay;
}

/// Places the replayed call times of a job inside its run span, in the
/// order the service makes the calls, clipped to the span.
void record_job_spans(Tracer& tracer, std::size_t job,
                      const StreamRun& run, const Replay& replay) {
  const MatrixJobResult& result = run.results[job];
  const auto at_ms = [](Clock::time_point t, double ms) {
    return t + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::milli>(ms));
  };
  const long id = static_cast<long>(job);
  // The root starts at submission: the submitter's lateness is the
  // harness's, reported as service.submit_late_ms, not a layer's.
  SpanRecord root;
  root.name = "job";
  root.start = run.submitted[job];
  root.end = run.done[job];
  root.job = id;
  const std::size_t root_id = tracer.record(root);

  SpanRecord queue;
  queue.layer = "service";
  queue.name = "queue";
  queue.start = run.submitted[job];
  queue.end = std::min(at_ms(queue.start, result.queue_ms), root.end);
  queue.parent = root_id;
  queue.job = id;
  tracer.record(queue);

  SpanRecord run_span = queue;
  run_span.name = "run";
  run_span.start = queue.end;
  run_span.end = std::min(at_ms(run_span.start, result.run_ms), root.end);
  const std::size_t run_id = tracer.record(run_span);

  std::vector<std::tuple<const char*, const char*, double>> calls;
  if (result.from_store) {
    calls.emplace_back("store", "load", replay.load_hit_ms);
  } else {
    calls.emplace_back("store", "load", replay.load_miss_ms);
    calls.emplace_back("analysis", "static_coverage_report", replay.static_ms);
    if (!result.served_statically) {
      if (!result.compiled_cache_hit) {
        calls.emplace_back("march", "compile_march_test", replay.compile_ms);
      }
      if (!result.instances_cache_hit) {
        calls.emplace_back("sim", "instantiate_all", replay.instantiate_ms);
      }
      calls.emplace_back("sim", "evaluate_coverage", replay.evaluate_ms);
    }
    calls.emplace_back("store", "save", replay.save_ms);
  }
  Clock::time_point t = run_span.start;
  for (const auto& [layer, name, ms] : calls) {
    SpanRecord call;
    call.layer = layer;
    call.name = name;
    call.start = t;
    call.end = std::min(at_ms(t, ms), run_span.end);
    call.parent = run_id;
    call.job = id;
    tracer.record(call);
    t = call.end;
  }
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

void run_matrix_open(const RunConfig& config, Tracer& tracer, Outcome& out) {
  const std::size_t job_count = std::max<std::size_t>(
      1, static_cast<std::size_t>(kRateJobsPerS * config.seconds));
  const Stream stream = make_stream(config.seed, job_count, kRateJobsPerS);
  const std::string store_root = config.out_dir + "/matrix-store-" +
                                 std::to_string(::getpid());

  Program program;
  PosixStorage storage;
  std::vector<std::unique_ptr<ScratchDir>> dirs;
  // Declared before the service, whose result callback writes into it.
  std::vector<std::atomic<std::int64_t>> done_ns(stream.jobs.size());
  std::unique_ptr<SweepStore> store;
  std::unique_ptr<MatrixService> service;
  timed_setup(out, tracer, [&](SetupLayers& layers) {
    service.reset();
    program = Program{};
    for (std::size_t i = 0; i < stream.notations.size(); ++i) {
      Timed call(tracer, "march", "parse_march_test", &layers.march_parse_ms);
      program.tests.push_back(
          parse_march_test(stream.notations[i], stream.names[i]));
    }
    for (const MarchTest& test : program.tests) {
      Timed call(tracer, "march", "compile_march_test",
                 &layers.march_compile_ms);
      compile_march_test(test);
      ++layers.compiles;
    }
    {
      Timed call(tracer, "fp", "build lists", &layers.list_build_ms);
      program.lists = build_lists();
    }
    dirs.push_back(std::make_unique<ScratchDir>(
        store_root + "-" + std::to_string(dirs.size())));
    {
      Span call(tracer, "store", "SweepStore::open");
      store = std::make_unique<SweepStore>(storage, dirs.back()->path());
      store->open();
    }
    {
      Span call(tracer, "service", "MatrixService");
      service = std::make_unique<MatrixService>(
          service_options(store.get(), done_ns));
    }
  });

  const std::vector<MatrixJob> jobs = make_jobs(stream, program);

  const StreamRun run =
      run_stream(*service, done_ns, jobs, kWarmupKeys, 1.0 / kRateJobsPerS);
  const MatrixServiceStats stats = service->stats();
  const SweepStoreStats store_stats = store->stats();
  service.reset();

  // Replay every distinct key alone: the solo report every job of the key
  // must match byte for byte, the schedule-free prediction of the exact
  // counters and, traced, the per-call timings.
  ScratchDir replay_dir(store_root + "-replay");
  SweepStore replay_store(storage, replay_dir.path());
  replay_store.open();
  std::map<std::size_t, Replay> replays;  // key rank → replay
  ReplayCache cache;
  std::set<std::size_t> compiled_tests;
  std::set<std::tuple<std::size_t, std::size_t, std::size_t>> instance_sets;
  std::uint64_t static_keys = 0, predicted_evaluations = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::size_t r = stream.jobs[i];
    if (replays.count(r) == 0) {
      const Replay& replay =
          replays
              .emplace(r, replay_key(jobs[i], stream.keys[r], cache,
                                     replay_store, config.trace))
              .first->second;
      const Key& key = stream.keys[r];
      if (replay.served_statically) {
        ++static_keys;
      } else {
        compiled_tests.insert(key.test);
        instance_sets.emplace(key.shape.list, key.shape.n, key.shape.cap);
        predicted_evaluations += replay.instances;
      }
    }
    const MatrixJobResult& result = run.results[i];
    out.check(result.job_id == i && result.status == JobStatus::Completed &&
                  report_bytes(result.report) == replays[r].solo_bytes,
              "job " + std::to_string(i) + " (" + to_string(result.status) +
                  ") does not match its solo evaluation");
  }
  const std::uint64_t distinct = replays.size();
  const std::uint64_t computed = stats.submitted - stats.store_hits;
  out.check(store_stats.saves == distinct &&
                store_stats.hits == jobs.size() - distinct &&
                stats.static_served == static_keys &&
                stats.compiled_cache_misses == compiled_tests.size() &&
                stats.instances_cache_misses == instance_sets.size() &&
                stats.instance_evaluations == predicted_evaluations,
            "service and store counters differ from the stream's prediction");
  out.exact["service.jobs"] = jobs.size();
  out.exact["store.saves"] = store_stats.saves;
  out.exact["store.hits"] = store_stats.hits;
  out.exact["service.static_served"] = stats.static_served;
  out.exact["service.compiled_cache_misses"] = stats.compiled_cache_misses;
  out.exact["service.instances_cache_misses"] = stats.instances_cache_misses;
  out.exact["service.instance_evaluations"] = stats.instance_evaluations;

  Metrics& m = out.metrics;
  m.set_median("job_latency_p50_ms", run.latency_ms, "ms");
  m.set_window_tail("job_latency_tail_ms", run.latency_ms, kTailWindowJobs,
                    "ms");
  if (!config.trace) return;

  for (std::size_t i = kWarmupKeys; i < jobs.size(); ++i) {
    record_job_spans(tracer, i, run, replays[stream.jobs[i]]);
  }
  report_layer_split(out, tracer);

  std::vector<double> queue_ms, run_ms;
  for (std::size_t i = kWarmupKeys; i < jobs.size(); ++i) {
    queue_ms.push_back(run.results[i].queue_ms);
    run_ms.push_back(run.results[i].run_ms);
  }
  m.set_median("service.queue_ms_p50", queue_ms, "ms");
  m.set_tail("service.queue_ms_tail", queue_ms, "ms");
  m.set_median("service.run_ms_p50", run_ms, "ms");
  m.set_tail("service.run_ms_tail", run_ms, "ms");
  m.set_tail("service.submit_late_ms", run.late_ms, "ms");
  m.set("service.compiled_cache_hits",
        static_cast<double>(stats.compiled_cache_hits), "count");
  m.set("service.compiled_cache_misses",
        static_cast<double>(stats.compiled_cache_misses), "count");
  m.set("service.compiled_cache_hit_ratio",
        ratio(stats.compiled_cache_hits,
              stats.compiled_cache_hits + stats.compiled_cache_misses),
        "ratio");
  m.set("service.instances_cache_hits",
        static_cast<double>(stats.instances_cache_hits), "count");
  m.set("service.instances_cache_misses",
        static_cast<double>(stats.instances_cache_misses), "count");
  m.set("service.instances_cache_hit_ratio",
        ratio(stats.instances_cache_hits,
              stats.instances_cache_hits + stats.instances_cache_misses),
        "ratio");
  m.set("store.hits", static_cast<double>(store_stats.hits), "count");
  m.set("store.misses", static_cast<double>(store_stats.misses), "count");
  m.set("store.saves", static_cast<double>(store_stats.saves), "count");
  m.set("store.save_failures", static_cast<double>(store_stats.save_failures),
        "count");
  m.set("store.hit_ratio",
        ratio(store_stats.hits, store_stats.hits + store_stats.misses),
        "ratio");
  m.set("analysis.static_served", static_cast<double>(stats.static_served),
        "count");
  m.set("analysis.static_attempted", static_cast<double>(computed), "count");
  m.set("analysis.static_served_frac", ratio(stats.static_served, computed),
        "ratio");

  std::vector<double> load_ms, save_ms, static_ms, instantiate_ms,
      evaluate_ms;
  double evaluate_total_ms = 0, instance_elements = 0;
  for (const auto& [r, replay] : replays) {
    load_ms.push_back(replay.load_hit_ms);
    save_ms.push_back(replay.save_ms);
    static_ms.push_back(replay.static_ms);
    if (replay.served_statically) continue;
    evaluate_ms.push_back(replay.evaluate_ms);
    evaluate_total_ms += replay.evaluate_ms;
    instance_elements +=
        static_cast<double>(replay.instances) *
        static_cast<double>(program.tests[stream.keys[r].test].size());
  }
  for (const auto& [shape, entry] : cache.instances) {
    instantiate_ms.push_back(entry.second);
  }
  m.set_median("store.load_ms", load_ms, "ms");
  m.set_median("store.save_ms", save_ms, "ms");
  m.set_median("analysis.static_report_ms", static_ms, "ms");
  m.set_median("sim.instantiate_ms", instantiate_ms, "ms");
  m.set_median("sim.evaluate_ms", evaluate_ms, "ms");
  m.set("sim.instances", static_cast<double>(stats.instance_evaluations),
        "count");
  m.set("sim.evaluate_ns_per_instance_element",
        instance_elements > 0 ? 1e6 * evaluate_total_ms / instance_elements
                              : 0.0,
        "ns");
}

void probe_matrix(Outcome& out) {
  // Rounds of four jobs on a store-less service with kServiceThreads
  // workers and as many jobs in flight, so that no job queues and each
  // latency is one job's own cost: March LA on List #2, March SS on the
  // retention list twice (≈3 ms) and March C- on the simple list (≈7 ms),
  // all at n = 1024, cap 256.  The median then falls inside the March SS
  // jobs and each window's tail inside its March C- jobs; the tail is the
  // median over windows of kProbeRounds rounds.  On the reference host (a
  // few cores of a shared machine) one thread's speed moved by up to 1.6x
  // from one half second to the next, so the jobs are spread over every
  // worker and over about three seconds.
  // Closed batches of many small jobs measured how fast the host drained a
  // 70 ms burst instead, and that moved by a quarter between runs.
  const auto simple =
      std::make_shared<const FaultList>(standard_simple_static_faults());
  const auto retention =
      std::make_shared<const FaultList>(retention_fault_list());
  const auto list2 = std::make_shared<const FaultList>(fault_list_2());
  const std::vector<std::pair<MarchTest, std::shared_ptr<const FaultList>>>
      round = {{march_la(), list2},
               {march_ss(), retention},
               {march_ss(), retention},
               {march_c_minus(), simple}};
  // 22 rounds put the tenth-slowest job of a window in the middle of its
  // March C- jobs.
  constexpr std::size_t kProbeRounds = 22;
  constexpr std::size_t kWindows = 24;
  const std::size_t jobs = round.size() * kProbeRounds * kWindows;
  std::vector<std::atomic<std::int64_t>> done_ns(jobs);
  MatrixService service(service_options(nullptr, done_ns));
  std::vector<Clock::time_point> due(jobs);
  std::vector<double> latency_ms;
  const auto finish = [&](std::size_t id) {
    out.check(service.wait(id).status == JobStatus::Completed,
              "probe job did not complete");
    const Clock::time_point done(
        Clock::duration(done_ns[id].load(std::memory_order_acquire)));
    latency_ms.push_back(
        std::chrono::duration<double, std::milli>(done - due[id]).count());
  };
  for (std::size_t i = 0; i < jobs; ++i) {
    if (i >= kServiceThreads) finish(i - kServiceThreads);
    MatrixJob job;
    job.test = round[i % round.size()].first;
    job.list = round[i % round.size()].second;
    job.memory_size = 1024;
    job.max_instances_per_fault = 256;
    due[i] = Clock::now();
    require(service.submit(std::move(job)).job_id == i,
            "probe: unexpected job id");
  }
  for (std::size_t i = jobs - kServiceThreads; i < jobs; ++i) finish(i);
  out.metrics.set_median("job_latency_p50_ms", latency_ms, "ms");
  out.metrics.set_window_tail("job_latency_tail_ms", latency_ms,
                              round.size() * kProbeRounds, "ms");
}

double matrix_open_capacity(const RunConfig& config) {
  const std::size_t job_count =
      static_cast<std::size_t>(kRateJobsPerS * config.seconds);
  const Stream stream = make_stream(config.seed, job_count, kRateJobsPerS);
  Program program;
  for (std::size_t i = 0; i < stream.notations.size(); ++i) {
    program.tests.push_back(
        parse_march_test(stream.notations[i], stream.names[i]));
  }
  program.lists = build_lists();
  const std::vector<MatrixJob> jobs = make_jobs(stream, program);
  PosixStorage storage;
  ScratchDir dir(config.out_dir + "/matrix-capacity-" +
                 std::to_string(::getpid()));
  SweepStore store(storage, dir.path());
  store.open();
  std::vector<std::atomic<std::int64_t>> done_ns(jobs.size());
  MatrixService service(service_options(&store, done_ns));
  const Clock::time_point start = Clock::now();
  run_stream(service, done_ns, jobs, 0, 0.0);
  return static_cast<double>(jobs.size()) /
         std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace perfbench
