// perfbench: the repository benchmark. One process runs one named
// workload against the lmkg library through its public API only, checks
// what the library returned, and prints one JSON result line as the last
// line of standard output. perfbench/run.py builds and runs it:
//
// python3 perfbench/run.py --workload plan-bulk --seed 3 --seconds 20 --trace 0
//
// Workloads (see perfbench/README.md for why each was chosen):
//   estimate-single  closed loop: 2 client threads, one blocking Estimate
//                    each, on a 2-shard LMKG-S service over SWDF; queries
//                    drawn uniformly from a distinct star/chain pool far
//                    larger than the result cache.
//   plan-bulk        closed loop: 2 client threads, each parsing SPARQL text
//                    and planning it with its own JoinPlanner priced in
//                    batches through one shared 2-shard LMKG-S service over
//                    LUBM; Zipf-skewed repeats, memo cleared per session.
//   drift-update     open loop: one generator thread issues EstimateAsync at
//                    a fixed rate on a 2-shard AdaptiveLmkg service attached
//                    from a ModelStore while the mix slides star-2 ->
//                    chain-3; one harness thread executes a fixed subset of
//                    the served queries into a FeedbackCollector and runs
//                    ModelLifecycle cycles at fixed request counts.
//
// Thread budget: load generation plus shard workers is 4 threads on every
// workload, and the intra-op util::ThreadPool runs on the calling thread
// (LMKG_THREADS=1), so no workload runs more threads than nproc.
//
// --trace 0 measures the end-to-end metrics; --trace 1 records spans
// around every call into a layer (in memory, written to --trace_dir at the
// end) and reports the per-layer metrics instead. --selftest checks the
// SPARQL rendering rule on every dataset and exits.
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/adaptive.h"
#include "core/lmkg_s.h"
#include "core/single_pattern.h"
#include "data/dataset.h"
#include "encoding/query_encoder.h"
#include "nn/tensor.h"
#include "planner/planner.h"
#include "query/executor.h"
#include "query/fingerprint.h"
#include "query/query.h"
#include "query/sparql_parser.h"
#include "sampling/workload.h"
#include "serving/estimator_service.h"
#include "serving/feedback_collector.h"
#include "serving/model_lifecycle.h"
#include "store/model_store.h"
#include "store/replica_attach.h"
#include "store/store_cache.h"
#include "util/math.h"
#include "util/random.h"

namespace {

using namespace lmkg;
using query::Topology;
using sampling::LabeledQuery;

// ---------------------------------------------------------------------------
// Fixed configuration. The datasets, training sets, models and query
// pools are fixed (constant seeds), so every run serves the same model
// over the same queries and accuracy is scored on the same labels; --seed
// drives which pool queries are requested, in what order and with what
// popularity.

constexpr uint64_t kFixedSeed = 20220329;
constexpr size_t kShards = 2;
// Set-up runs at least kMinSetUps times and until kMinSetUpSeconds of
// set-up have passed (at most kMaxSetUps times); setup_s is the median.
// One set-up of drift-update takes ~0.1 s, so five of them sampled the
// machine's speed over half a second, and the spread of their median over
// five runs reached 0.4.
constexpr int kMinSetUps = 5;
constexpr int kMaxSetUps = 64;
constexpr double kMinSetUpSeconds = 4.0;
constexpr int kColdStartsPerSetUp = 11;
constexpr double kWarmupSeconds = 0.5;
// Latency percentiles (and closed-loop throughput) are taken per window of
// the measured interval. A closed loop sends the same mix for the whole
// run, so its windows are alike and are reported from the best tenth: the
// kBestWindows quantile of each window's percentile (latency) or the
// 1 - kBestWindows quantile of each window's rate (throughput). On a
// shared host the CPU's speed drops by up to a third for episodes of a
// few seconds (another tenant on the core); in a fixed CPU-bound loop the
// median over 1 s blocks of 25 s moved by 0.10 between stretches, the 90th
// percentile by 0.03. drift-update's mix slides and its model changes at
// every cycle, so its windows differ by design and the best tenth would
// always come from one stretch of the run; it reports the median window.
// A stall that hits a few windows (a lifecycle retrain) moves
// slo_met_frac, which counts every request, and not the percentiles. At
// 25 s, plan-bulk, the slowest workload, leaves over a hundred samples
// beyond each window's p95.
constexpr size_t kWindows = 100;
constexpr double kBestWindows = 0.10;
constexpr double kMedianWindow = 0.50;
constexpr size_t kSamplesPerWindow = 8192;
constexpr uint64_t kMaxCardinality = 1953125;  // 5^9
constexpr int kMaxPlanSize = 8;

// estimate-single
constexpr double kSwdfScale = 0.05;
constexpr size_t kSinglePoolPerCombo = 150;
constexpr size_t kSingleCacheCapacity = 32;
constexpr double kSingleSloUs = 500.0;

// plan-bulk
constexpr double kLubmScale = 0.01;
constexpr size_t kPlanPoolPerCombo = 100;
constexpr size_t kPlanCacheCapacity = 8192;
constexpr double kZipfExponent = 1.0;
constexpr size_t kPlansPerSession = 16;
constexpr size_t kPlanCheckEvery = 64;
constexpr double kPlanSloUs = 5000.0;

// drift-update
constexpr double kDriftRatePerSec = 120000.0;
constexpr double kDriftSloUs = 1000.0;
constexpr size_t kDriftPoolPerCombo = 400;
constexpr size_t kDriftCacheCapacity = 64;
constexpr size_t kDriftExecuteEvery = 16;
constexpr int kDriftCycles = 4;
constexpr size_t kDriftMaxOutstanding = 4096;
// The generator is behind its schedule, and the run invalid, when its
// median send lateness exceeds this: it is late as a rule, not in a burst.
constexpr double kDriftMaxLateP50Us = 20.0;

// Shared LMKG-S training set per combo (star/chain, sizes 2..8 for the
// planner; the SWDF model sees the sizes its pool draws).
constexpr size_t kTrainPerCombo = 100;
constexpr size_t kPlanSampleSize = 24;

// ---------------------------------------------------------------------------
// Time and small statistics.

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Whether another set-up is due, `done` set-ups after `start_ns`.
bool MoreSetUps(int done, int64_t start_ns) {
  return done < kMinSetUps ||
         (done < kMaxSetUps && Seconds(NowNs() - start_ns) < kMinSetUpSeconds);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile of unsorted samples (reorders them).
template <typename T>
double Quantile(std::vector<T>* v, double q) {
  if (v->empty()) return 0.0;
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  k = std::clamp<size_t>(k, 1, v->size()) - 1;
  std::nth_element(v->begin(), v->begin() + static_cast<ptrdiff_t>(k),
                   v->end());
  return static_cast<double>((*v)[k]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// splitmix64's finalizer: a stateless hash for seed-driven choices.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Pins the calling load-generation thread to the index-th CPU this process
// may run on, so the benchmark's own threads keep to fixed CPUs and leave
// the others to the service's shard workers; run-to-run latency otherwise
// depends on where the scheduler happens to put each thread. Best effort.
void PinToCpu(size_t index) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count == 0) return;
  int skip = static_cast<int>(index % static_cast<size_t>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    return;
  }
}

// While alive, keeps the calling thread off the first kLoadCpus CPUs this
// process may use, the ones PinToCpu hands to load-generation threads.
// The shard workers a service starts meanwhile inherit that mask, so a
// worker never runs on a load-generation CPU, where it would time-share
// with a client or with the spinning drift generator. Best effort: with
// kLoadCpus CPUs or fewer, nothing changes.
class ServiceCpus {
 public:
  ServiceCpus() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t rest;
    CPU_ZERO(&rest);
    size_t index = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &saved_) && index++ >= kLoadCpus) CPU_SET(cpu, &rest);
    restore_ = CPU_COUNT(&rest) > 0 &&
               pthread_setaffinity_np(pthread_self(), sizeof(rest), &rest) == 0;
  }
  ~ServiceCpus() {
    if (restore_)
      (void)pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  ServiceCpus(const ServiceCpus&) = delete;
  ServiceCpus& operator=(const ServiceCpus&) = delete;

 private:
  static constexpr size_t kLoadCpus = 2;
  cpu_set_t saved_;
  bool restore_ = false;
};

uint32_t ClampNs(int64_t ns) {
  return static_cast<uint32_t>(
      std::clamp<int64_t>(ns, 0, std::numeric_limits<uint32_t>::max()));
}

// Per-thread latency record of one request stream. Every request counts
// toward its window's request and SLO counts; the first kSamplesPerWindow
// requests of each window also keep their exact latency, from which the
// window's percentiles are computed. The buffer is preallocated and
// touched before the timed interval, so recording is a few stores, and
// its size does not depend on throughput, so the benchmark's own memory
// cannot move peak_rss_mb. Failed requests are recorded at the maximum
// latency, so they miss the SLO.
class LatencyLog {
 public:
  explicit LatencyLog(double slo_us)
      : slo_ns_(static_cast<uint32_t>(slo_us * 1e3)),
        samples_(kWindows * kSamplesPerWindow),
        requests_(kWindows),
        met_(kWindows) {}
  void Add(int window, int64_t ns) {
    const auto w = static_cast<size_t>(window);
    const uint32_t value = ClampNs(ns);
    const size_t i = requests_[w]++;
    if (value <= slo_ns_) ++met_[w];
    if (i < kSamplesPerWindow) samples_[w * kSamplesPerWindow + i] = value;
  }
  void AppendSamples(size_t window, std::vector<uint32_t>* out) const {
    const auto begin = samples_.begin() +
                       static_cast<ptrdiff_t>(window * kSamplesPerWindow);
    out->insert(out->end(), begin,
                begin + static_cast<ptrdiff_t>(
                            std::min(requests_[window], kSamplesPerWindow)));
  }
  size_t requests(size_t window) const { return requests_[window]; }
  size_t met(size_t window) const { return met_[window]; }

 private:
  const uint32_t slo_ns_;
  std::vector<uint32_t> samples_;
  std::vector<size_t> requests_;
  std::vector<size_t> met_;
};

// ---------------------------------------------------------------------------
// Tracing: spans around each call into a layer, recorded per thread in
// memory. Self time (span minus the part its child spans cover) is
// accumulated online for every span; the first `keep` spans of a thread
// are also kept verbatim and written out when the run ends.

enum SpanName : uint16_t {
  kParse,
  kFingerprint,
  kExecutorCount,
  kEstimate,
  kPlan,
  kPricing,
  kCycle,
  kNumSpanNames
};
constexpr const char* kSpanNames[kNumSpanNames] = {
    "query.parse",    "query.fingerprint", "query.executor_count",
    "serving.estimate", "planner.plan",    "planner.pricing",
    "lifecycle.cycle"};

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;
  int32_t parent = -1;  // index into the same thread's kept spans
  uint16_t name = 0;
};

struct SpanTotals {
  uint64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(size_t keep) {
    kept_.reserve(keep);
    stack_.reserve(16);
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Begin(SpanName name, uint64_t request) {
    Open open{name, NowNs(), 0, -1};
    if (kept_.size() < kept_.capacity()) {
      open.index = static_cast<int32_t>(kept_.size());
      kept_.push_back({open.start, 0, request,
                       stack_.empty() ? -1 : stack_.back().index, name});
    }
    stack_.push_back(open);
  }
  void End() {
    const int64_t end = NowNs();
    const Open open = stack_.back();
    stack_.pop_back();
    const int64_t duration = end - open.start;
    SpanTotals& totals = totals_[open.name];
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += duration - open.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += duration;
    if (open.index >= 0) kept_[static_cast<size_t>(open.index)].end_ns = end;
  }
  // A finished root span whose ends were stamped elsewhere (an async
  // request: submitted at `start`, observed complete at `end`).
  void Record(SpanName name, uint64_t request, int64_t start, int64_t end) {
    SpanTotals& totals = totals_[name];
    ++totals.count;
    totals.total_ns += end - start;
    totals.self_ns += end - start;
    if (kept_.size() < kept_.capacity())
      kept_.push_back({start, end, request, -1, name});
  }

  const SpanTotals& totals(SpanName name) const { return totals_[name]; }
  const std::vector<SpanRecord>& kept() const { return kept_; }
  uint64_t span_count() const {
    uint64_t n = 0;
    for (const SpanTotals& t : totals_) n += t.count;
    return n;
  }

 private:
  struct Open {
    SpanName name;
    int64_t start;
    int64_t child_ns;
    int32_t index;
  };
  std::vector<SpanRecord> kept_;
  std::vector<Open> stack_;
  SpanTotals totals_[kNumSpanNames] = {};
};

// Records a span when `tracer` is non-null; a no-op (one branch) otherwise.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, SpanName name, uint64_t request)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name, request);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
};

// The traced threads of one run, with helpers over their totals.
struct Trace {
  std::vector<std::unique_ptr<Tracer>> threads;

  Tracer* Add() {
    threads.push_back(std::make_unique<Tracer>(20000));
    return threads.back().get();
  }
  SpanTotals Totals(SpanName name) const {
    SpanTotals sum;
    for (const auto& t : threads) {
      const SpanTotals& s = t->totals(name);
      sum.count += s.count;
      sum.total_ns += s.total_ns;
      sum.self_ns += s.self_ns;
    }
    return sum;
  }
  // Mean span duration in microseconds (0 when the span never ran).
  double MeanUs(SpanName name) const {
    const SpanTotals t = Totals(name);
    return t.count == 0 ? 0.0
                        : static_cast<double>(t.total_ns) * 1e-3 /
                              static_cast<double>(t.count);
  }
  uint64_t SpanCount() const {
    uint64_t n = 0;
    for (const auto& t : threads) n += t->span_count();
    return n;
  }
  // Writes the kept spans as JSON lines; returns false on an I/O error.
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t thread = 0; thread < threads.size(); ++thread) {
      const std::vector<SpanRecord>& kept = threads[thread]->kept();
      for (size_t i = 0; i < kept.size(); ++i) {
        const SpanRecord& s = kept[i];
        out << "{\"thread\":" << thread << ",\"span\":" << i
            << ",\"parent\":" << s.parent << ",\"request\":" << s.request
            << ",\"name\":\"" << kSpanNames[s.name]
            << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
            << "}\n";
      }
    }
    return static_cast<bool>(out);
  }
};

// Cost of one recorded span (Begin + End), measured on this machine: the
// tracing overhead of a traced run is its span count times this, over the
// traced threads' wall time.
double SpanCostNs() {
  Tracer tracer(0);
  constexpr int kSpans = 200000;
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    tracer.Begin(kEstimate, static_cast<uint64_t>(i));
    tracer.End();
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

// ---------------------------------------------------------------------------
// Metrics. The two tables are the contract with BENCHMARK.json: an
// untraced run prints exactly the end-to-end set, a traced run exactly the
// per-layer set (a layer a workload does not exercise reports 0).

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"requests_per_s", "1/s"},
    {"latency_p50_us", "us"},  {"latency_p95_us", "us"},
    {"slo_met_frac", "ratio"}, {"qerror_p50", "ratio"},
    {"qerror_p95", "ratio"},   {"plan_cost_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"query.parse_us", "us"},
    {"query.fingerprint_us", "us"},
    {"query.executor_count_us", "us"},
    {"serving.estimate_us", "us"},
    {"serving.self_us", "us"},
    {"serving.batch_fill", "count"},
    {"serving.cache_hit_frac", "ratio"},
    {"serving.stale_evictions", "count"},
    {"serving.fallback_served_frac", "ratio"},
    {"serving.cold_start_ms", "ms"},
    {"core.encode_us_per_query", "us"},
    {"core.forward_us_per_query", "us"},
    {"nn.forward_flops_per_query", "flop"},
    {"planner.plan_us", "us"},
    {"planner.pricing_us", "us"},
    {"planner.self_us", "us"},
    {"planner.memo_hit_frac", "ratio"},
    {"planner.priced_per_plan", "count"},
    {"planner.greedy_frac", "ratio"},
    {"feedback.drop_frac", "ratio"},
    {"feedback.pairs_drained", "count"},
    {"lifecycle.cycle_ms", "ms"},
    {"lifecycle.incremental_frac", "ratio"},
    {"lifecycle.persisted_frac", "ratio"},
    {"store.open_ms", "ms"},
    {"store.attach_ms", "ms"},
    {"store.first_estimate_ms", "ms"},
    {"store.write_ms", "ms"},
    {"store.resident_bytes", "bytes"},
    {"store.mapped_bytes", "bytes"},
    {"data.generate_s", "s"},
    {"sampling.label_s", "s"},
    {"core.train_s", "s"},
    {"bench.gen_late_p99_us", "us"},
    {"bench.trace_overhead_frac", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string trace_dir = ".";
  std::string work_dir = ".";
};

// What a workload run produced. Every check the benchmark makes either
// counts a failed request or clears `correct` with a message on stderr.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;

  void Fail(const std::string& why) {
    correct = false;
    std::cerr << "[perfbench] check failed: " << why << "\n";
  }
  void Set(const std::string& name, double value) { metrics[name] = value; }
};

// ---------------------------------------------------------------------------
// Inputs.

std::unique_ptr<rdf::Graph> MakeGraph(const std::string& name, double scale) {
  return std::make_unique<rdf::Graph>(
      data::MakeDataset(name, scale, kFixedSeed));
}

std::vector<LabeledQuery> Label(const sampling::WorkloadGenerator& generator,
                                Topology topology, int size, size_t count,
                                uint64_t seed) {
  sampling::WorkloadGenerator::Options options;
  options.topology = topology;
  options.query_size = size;
  options.count = count;
  options.seed = seed;
  options.max_cardinality = kMaxCardinality;
  return generator.Generate(options);
}

const std::vector<Topology> kStarChain = {Topology::kStar, Topology::kChain};

// Labelled queries of every (topology, size) combo, fingerprint-distinct.
std::vector<LabeledQuery> DistinctPool(
    const sampling::WorkloadGenerator& generator,
    const std::vector<Topology>& topologies, const std::vector<int>& sizes,
    size_t per_combo, uint64_t seed) {
  std::vector<LabeledQuery> pool;
  std::unordered_set<query::Fingerprint, query::FingerprintHasher> seen;
  uint64_t combo = 0;
  for (Topology topology : topologies) {
    for (int size : sizes) {
      for (LabeledQuery& lq : Label(generator, topology, size, per_combo,
                                    seed * 7919 + ++combo)) {
        if (seen.insert(query::ComputeFingerprint(lq.query)).second)
          pool.push_back(std::move(lq));
      }
    }
  }
  return pool;
}

// The SPARQL rendering rule: every bound term is written by its
// rdf::TermDictionary name, `<name>` for URIs and the stored quoted form
// for literals; variable i is written `?v<i>`; patterns are joined by
// " . ". query::ParseSparql reads the text back to a query with the same
// fingerprint (checked by RoundTripFailures). Returns false when a name
// cannot be written that way.
bool RenderSparql(const query::Query& q, const rdf::TermDictionary& dict,
                  std::string* out) {
  auto term = [&](const query::PatternTerm& t, bool predicate) {
    if (t.is_var()) {
      *out += "?v" + std::to_string(t.var);
      return true;
    }
    const std::string& name = predicate ? dict.PredicateName(t.value)
                                        : dict.NodeName(t.value);
    const bool literal =
        name.size() >= 2 && name.front() == '"' && name.back() == '"';
    if (literal) {
      *out += name;
      return true;
    }
    if (name.empty() || name.find_first_of("<> \t\n\"") != std::string::npos)
      return false;
    *out += "<" + name + ">";
    return true;
  };
  out->assign("SELECT * WHERE { ");
  for (size_t i = 0; i < q.patterns.size(); ++i) {
    const query::TriplePattern& p = q.patterns[i];
    if (i > 0) *out += " . ";
    if (!term(p.s, false)) return false;
    *out += ' ';
    if (!term(p.p, true)) return false;
    *out += ' ';
    if (!term(p.o, false)) return false;
  }
  *out += " }";
  return true;
}

// Renders each query, parses the text back and compares fingerprints.
// Fills `texts` (when non-null) and returns how many queries failed.
size_t RoundTripFailures(const std::vector<LabeledQuery>& queries,
                         const rdf::Graph& graph,
                         std::vector<std::string>* texts) {
  size_t failures = 0;
  std::string text;
  for (const LabeledQuery& lq : queries) {
    bool ok = RenderSparql(lq.query, graph.dict(), &text);
    if (ok) {
      util::Result<query::Query> parsed = query::ParseSparql(text, graph);
      ok = parsed.ok() && query::ComputeFingerprint(parsed.value()) ==
                              query::ComputeFingerprint(lq.query);
    }
    if (!ok) ++failures;
    if (texts != nullptr) texts->push_back(text);
  }
  return failures;
}

// ---------------------------------------------------------------------------
// LMKG-S deployments (estimate-single, plan-bulk).

std::unique_ptr<encoding::QueryEncoder> NewEncoder(const rdf::Graph& graph) {
  // Every connected sub-plan of an 8-pattern star or chain: <= 8 edges,
  // <= 9 nodes.
  return encoding::MakeSgEncoder(graph, kMaxPlanSize + 1, kMaxPlanSize,
                                 encoding::TermEncoding::kBinary);
}

core::LmkgSConfig ModelConfig() {
  core::LmkgSConfig config;
  config.hidden_dim = 64;
  config.epochs = 10;
  config.seed = kFixedSeed;
  return config;
}

// One set-up of an LMKG-S workload: dataset, labelled training set,
// trained model, serialized weights.
struct LmkgSetup {
  std::unique_ptr<rdf::Graph> graph;
  std::unique_ptr<core::LmkgS> model;
  std::string blob;
  query::Query probe;  // a training query; what each cold start estimates
  double generate_s = 0, label_s = 0, train_s = 0;
};

LmkgSetup SetUpLmkg(const std::string& dataset, double scale,
                    const std::vector<int>& train_sizes) {
  LmkgSetup setup;
  int64_t t = NowNs();
  setup.graph = MakeGraph(dataset, scale);
  setup.generate_s = Seconds(NowNs() - t);

  t = NowNs();
  sampling::WorkloadGenerator generator(*setup.graph);
  std::vector<LabeledQuery> train;
  uint64_t combo = 0;
  for (Topology topology : {Topology::kStar, Topology::kChain}) {
    for (int size : train_sizes) {
      std::vector<LabeledQuery> part = Label(
          generator, topology, size, kTrainPerCombo, kFixedSeed + ++combo);
      train.insert(train.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
    }
  }
  setup.label_s = Seconds(NowNs() - t);
  setup.probe = train.front().query;

  t = NowNs();
  setup.model =
      std::make_unique<core::LmkgS>(NewEncoder(*setup.graph), ModelConfig());
  setup.model->Train(train);
  std::ostringstream blob;
  if (!setup.model->Save(blob).ok()) {
    std::cerr << "[perfbench] model serialization failed\n";
    std::exit(1);
  }
  setup.blob = blob.str();
  setup.train_s = Seconds(NowNs() - t);
  return setup;
}

// A set-up LMKG-S workload with its running service. The replicas encode
// over the set-up's graph, so the service is declared (and destroyed)
// after the set-up.
struct LmkgDeployment {
  std::unique_ptr<LmkgSetup> setup;
  std::unique_ptr<serving::EstimatorService> service;
};

// Cold start of an LMKG-S deployment: deserialize one replica per shard,
// start the service, serve one estimate. Returns milliseconds.
double ColdStartLmkg(const serving::ServiceConfig& config,
                     LmkgDeployment* deployment, RunResult* result) {
  const LmkgSetup& setup = *deployment->setup;
  deployment->service.reset();
  const int64_t t = NowNs();
  std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas;
  for (size_t i = 0; i < kShards; ++i) {
    auto replica = std::make_unique<core::LmkgS>(NewEncoder(*setup.graph),
                                                 ModelConfig());
    std::istringstream in(setup.blob);
    if (!replica->Load(in).ok()) {
      std::cerr << "[perfbench] replica load failed\n";
      std::exit(1);
    }
    replicas.push_back(std::move(replica));
  }
  {
    const ServiceCpus service_cpus;
    deployment->service = std::make_unique<serving::EstimatorService>(
        std::move(replicas), config);
  }
  const double estimate = deployment->service->Estimate(setup.probe);
  const double ms = Seconds(NowNs() - t) * 1e3;
  if (!SameBits(estimate, setup.model->EstimateCardinality(setup.probe)))
    result->Fail("cold-start estimate differs from the serial model");
  return ms;
}

// Sets the workload up (see MoreSetUps) and cold-starts each set-up
// kColdStartsPerSetUp times, keeping the last set-up and service. Reports
// the median of each set-up phase and of the cold starts, which thereby
// sample the machine across the whole set-up time.
LmkgDeployment SetUpAndStart(const std::function<LmkgSetup()>& set_up,
                             const serving::ServiceConfig& config,
                             RunResult* result) {
  std::vector<double> total, generate, label, train, cold;
  LmkgDeployment deployment;
  const int64_t start = NowNs();
  for (int r = 0; MoreSetUps(r, start); ++r) {
    deployment.service.reset();  // free the previous repeat first
    deployment.setup.reset();
    deployment.setup = std::make_unique<LmkgSetup>(set_up());
    const LmkgSetup& setup = *deployment.setup;
    generate.push_back(setup.generate_s);
    label.push_back(setup.label_s);
    train.push_back(setup.train_s);
    total.push_back(setup.generate_s + setup.label_s + setup.train_s);
    for (int c = 0; c < kColdStartsPerSetUp; ++c)
      cold.push_back(ColdStartLmkg(config, &deployment, result));
  }
  result->Set("setup_s", Median(total));
  result->Set("data.generate_s", Median(generate));
  result->Set("sampling.label_s", Median(label));
  result->Set("core.train_s", Median(train));
  result->Set("serving.cold_start_ms", Median(cold));
  return deployment;
}

// q-error percentiles of `estimates` against the pool's labels.
void SetQError(const std::vector<LabeledQuery>& labelled,
               const std::vector<double>& estimates, RunResult* result) {
  std::vector<double> qerrors;
  for (size_t i = 0; i < labelled.size(); ++i)
    qerrors.push_back(util::QError(estimates[i], labelled[i].cardinality));
  const util::QErrorStats stats = util::QErrorStats::Compute(qerrors);
  result->Set("qerror_p50", stats.median);
  result->Set("qerror_p95", stats.p95);
}

// Geometric mean over a fixed sample of the true C_out of the plan chosen
// with `source` over the true optimum (both priced by exact counts).
double PlanCostRatio(const std::vector<LabeledQuery>& sample,
                     const rdf::Graph& graph,
                     planner::CardinalitySource* source) {
  query::Executor executor(graph);
  planner::OracleSource oracle(&executor);
  planner::JoinPlanner optimal_planner(&oracle);
  planner::JoinPlanner planner(source);
  double log_sum = 0.0;
  for (const LabeledQuery& lq : sample) {
    const double optimal =
        std::max(optimal_planner.PlanQuery(lq.query).cost, 1.0);
    const planner::Plan& chosen = planner.PlanQuery(lq.query);
    log_sum += std::log(
        std::max(planner::PlanTrueCost(lq.query, chosen, &oracle), 1.0) /
        optimal);
  }
  return std::exp(log_sum / static_cast<double>(sample.size()));
}

// The fixed (seed-independent) plan-quality sample: kPlanSampleSize
// queries spread evenly over the (topology, size) combos.
std::vector<LabeledQuery> FixedPlanSample(
    const sampling::WorkloadGenerator& generator,
    const std::vector<Topology>& topologies, const std::vector<int>& sizes) {
  return DistinctPool(generator, topologies, sizes,
                      kPlanSampleSize / (topologies.size() * sizes.size()),
                      kFixedSeed * 31);
}

// Mean cost of query::ComputeFingerprint over a workload's queries, from
// spans around the calls. The service fingerprints every request
// internally; timing the same call on the same queries here, after the
// measured interval, keeps that interval free of extra work.
double FingerprintUs(const std::vector<LabeledQuery>& queries) {
  Tracer tracer(0);
  query::FingerprintScratch scratch;
  uint64_t request = 0;
  while (tracer.span_count() < 100000) {
    for (const LabeledQuery& lq : queries) {
      SpanScope span(&tracer, kFingerprint, ++request);
      (void)query::ComputeFingerprint(lq.query, &scratch);
    }
  }
  const SpanTotals& totals = tracer.totals(kFingerprint);
  return static_cast<double>(totals.total_ns) * 1e-3 /
         static_cast<double>(totals.count);
}

// Service counters over a window: `after` minus `before`.
void SetServingLayer(const serving::ServingStatsSnapshot& before,
                     const serving::ServingStatsSnapshot& after,
                     RunResult* result) {
  auto ratio = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
  };
  const uint64_t hits = after.cache_hits - before.cache_hits;
  const uint64_t misses = after.cache_misses - before.cache_misses;
  result->Set("serving.batch_fill",
              ratio(after.batched_requests - before.batched_requests,
                    after.batches - before.batches));
  result->Set("serving.cache_hit_frac", ratio(hits, hits + misses));
  result->Set("serving.stale_evictions",
              static_cast<double>(after.cache_stale_evictions -
                                  before.cache_stale_evictions));
  result->Set("serving.fallback_served_frac",
              ratio(after.feedback_fallback_served -
                        before.feedback_fallback_served,
                    after.requests - before.requests));
}

// Encode/forward timings of every LMKG-S replica (read through
// WithReplica, under each shard's replica mutex).
core::LmkgS::StageStats StageStats(serving::EstimatorService* service) {
  core::LmkgS::StageStats sum;
  for (size_t i = 0; i < service->num_shards(); ++i) {
    service->WithReplica(i, [&](core::CardinalityEstimator* replica) {
      const auto& s = static_cast<core::LmkgS*>(replica)->stage_stats();
      sum.encode_seconds += s.encode_seconds;
      sum.forward_seconds += s.forward_seconds;
      sum.batches += s.batches;
      sum.queries += s.queries;
    });
  }
  return sum;
}

void StartStageStats(serving::EstimatorService* service) {
  for (size_t i = 0; i < service->num_shards(); ++i) {
    service->WithReplica(i, [&](core::CardinalityEstimator* replica) {
      auto* model = static_cast<core::LmkgS*>(replica);
      model->set_collect_stage_stats(true);
      model->ResetStageStats();
    });
  }
}

// Multiply-adds of one forward pass, counted as 2 flops, plus one add per
// bias entry — from the layer shapes ({W, b} per Dense layer).
double ForwardFlops(const core::LmkgS& model) {
  const std::vector<std::pair<size_t, size_t>> shapes =
      model.ExpectedParamShapes();
  double flops = 0.0;
  for (size_t i = 0; i < shapes.size(); ++i)
    flops += (i % 2 == 0 ? 2.0 : 1.0) *
             static_cast<double>(shapes[i].first * shapes[i].second);
  return flops;
}

// Serving and core per-layer metrics of an LMKG-S run: `queries` requests
// reached the service inside `estimate` spans.
void SetLmkgCoreLayer(const Trace& trace, const core::LmkgS::StageStats& stage,
                      uint64_t queries, const core::LmkgS& model,
                      SpanName estimate, RunResult* result) {
  const double per_query =
      queries == 0 ? 0.0 : 1e6 / static_cast<double>(queries);
  const double encode_us = stage.encode_seconds * per_query;
  const double forward_us = stage.forward_seconds * per_query;
  const SpanTotals spans = trace.Totals(estimate);
  result->Set("serving.estimate_us", trace.MeanUs(estimate));
  result->Set("serving.self_us",
              static_cast<double>(spans.total_ns) * 1e-3 /
                      std::max<double>(1.0, static_cast<double>(queries)) -
                  encode_us - forward_us);
  result->Set("core.encode_us_per_query",
              stage.queries == 0 ? 0.0
                                 : stage.encode_seconds * 1e6 /
                                       static_cast<double>(stage.queries));
  result->Set("core.forward_us_per_query",
              stage.queries == 0 ? 0.0
                                 : stage.forward_seconds * 1e6 /
                                       static_cast<double>(stage.queries));
  result->Set("nn.forward_flops_per_query", ForwardFlops(model));
}

// Latency metrics over one or more logs: the SLO share over all requests,
// and the `window_quantile` quantile over the windows of each window's p50
// and p95. The tail is the p95, not the p99: on a shared virtual machine
// drift-update's p99 moved by up to a fifth between runs of the same
// code, its p95 by under a tenth. With `window_seconds`, also the
// 1 - `window_quantile` quantile of each window's requests per second.
void SetLatencyMetrics(const std::vector<const LatencyLog*>& logs,
                       const std::vector<double>& window_seconds,
                       double window_quantile,
                       RunResult* result) {
  size_t requests = 0, met = 0;
  std::vector<double> p50, p95, rates;
  std::vector<uint32_t> samples;
  for (size_t w = 0; w < kWindows; ++w) {
    samples.clear();
    size_t window_requests = 0;
    for (const LatencyLog* log : logs) {
      log->AppendSamples(w, &samples);
      window_requests += log->requests(w);
      met += log->met(w);
    }
    requests += window_requests;
    if (!window_seconds.empty())
      rates.push_back(static_cast<double>(window_requests) / window_seconds[w]);
    if (samples.empty()) continue;
    p50.push_back(Quantile(&samples, 0.50) * 1e-3);
    p95.push_back(Quantile(&samples, 0.95) * 1e-3);
  }
  result->Set("slo_met_frac",
              requests == 0 ? 0.0
                            : static_cast<double>(met) /
                                  static_cast<double>(requests));
  result->Set("latency_p50_us", Quantile(&p50, window_quantile));
  result->Set("latency_p95_us", Quantile(&p95, window_quantile));
  if (!window_seconds.empty())
    result->Set("requests_per_s", Quantile(&rates, 1.0 - window_quantile));
}

// Phase of a closed-loop run, advanced by the main thread: 0 is the
// warm-up, 1..kWindows the measurement windows, kStop the end.
constexpr int kStop = static_cast<int>(kWindows) + 1;

// Runs `clients` closed-loop client threads: warm-up, then `seconds` of
// measurement in kWindows windows. Returns each window's length in seconds.
std::vector<double> RunClosedLoop(const Args& args, std::atomic<int>* phase,
                                  std::vector<std::thread>* clients,
                                  const std::function<void()>& on_measure_start,
                                  const std::function<void()>& on_measure_end) {
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  on_measure_start();
  std::vector<double> window_seconds;
  const auto begin = std::chrono::steady_clock::now();
  int64_t window_start = NowNs();
  for (int w = 1; w < kStop; ++w) {
    phase->store(w, std::memory_order_release);
    const std::chrono::duration<double> elapsed(args.seconds * w / kWindows);
    std::this_thread::sleep_until(
        begin +
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed));
    const int64_t now = NowNs();
    window_seconds.push_back(Seconds(now - window_start));
    window_start = now;
  }
  phase->store(kStop, std::memory_order_release);
  for (std::thread& t : *clients) t.join();
  on_measure_end();
  return window_seconds;
}

// ---------------------------------------------------------------------------
// estimate-single

void RunEstimateSingle(const Args& args, Trace* trace, RunResult* result) {
  const std::vector<int> sizes = {2, 3, 5, 8};
  serving::ServiceConfig config;
  config.cache_capacity = kSingleCacheCapacity;
  // Every request takes the hand-off. With the inline fast path on, the
  // two clients split their requests between inline execution on an idle
  // shard (~4 us) and the hand-off when the other client holds that
  // shard (~20 us), in a share set by timing; the median latency sat
  // between the two and moved from run to run.
  config.inline_execution = false;
  const LmkgDeployment deployment = SetUpAndStart(
      [&] { return SetUpLmkg("swdf", kSwdfScale, sizes); }, config, result);
  const LmkgSetup& setup = *deployment.setup;
  const std::unique_ptr<serving::EstimatorService>& service =
      deployment.service;
  const sampling::WorkloadGenerator labeller(*setup.graph);
  const std::vector<LabeledQuery> pool = DistinctPool(
      labeller, kStarChain, sizes, kSinglePoolPerCombo, kFixedSeed + 1);
  std::cerr << "[perfbench] estimate-single: "
            << rdf::GraphSummary(*setup.graph) << ", pool " << pool.size()
            << " distinct queries\n";

  // The serial per-query result every served estimate must equal.
  std::vector<double> expected;
  for (const LabeledQuery& lq : pool)
    expected.push_back(setup.model->EstimateCardinality(lq.query));
  SetQError(pool, expected, result);

  std::atomic<int> phase{0};
  std::vector<std::unique_ptr<LatencyLog>> logs;
  std::vector<uint64_t> attempted(2, 0), failed(2, 0);
  std::vector<Tracer*> tracers(2, nullptr);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 2; ++c) {
    logs.push_back(std::make_unique<LatencyLog>(kSingleSloUs));
    if (args.trace) tracers[c] = trace->Add();
  }
  for (size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      PinToCpu(c);
      util::Pcg32 rng(args.seed, c + 1);
      LatencyLog& log = *logs[c];
      uint64_t request = c << 48;
      const auto n = static_cast<uint32_t>(pool.size());
      while (true) {
        const int ph = phase.load(std::memory_order_acquire);
        if (ph == kStop) break;
        const uint32_t i = rng.UniformInt(n);
        const query::Query& q = pool[i].query;
        Tracer* tracer = ph > 0 ? tracers[c] : nullptr;
        ++request;
        const int64_t t0 = NowNs();
        double estimate;
        {
          SpanScope span(tracer, kEstimate, request);
          estimate = service->Estimate(q);
        }
        const int64_t t1 = NowNs();
        if (ph == 0) continue;
        ++attempted[c];
        if (!std::isfinite(estimate) || !SameBits(estimate, expected[i])) {
          ++failed[c];
          log.Add(ph - 1, std::numeric_limits<int64_t>::max());
        } else {
          log.Add(ph - 1, t1 - t0);
        }
      }
    });
  }
  serving::ServingStatsSnapshot before, after;
  const std::vector<double> window_seconds = RunClosedLoop(
      args, &phase, &clients,
      [&] {
        if (args.trace) StartStageStats(service.get());
        before = service->Stats();
      },
      [&] { after = service->Stats(); });

  result->attempted = attempted[0] + attempted[1];
  result->failed = failed[0] + failed[1];
  SetLatencyMetrics({logs[0].get(), logs[1].get()}, window_seconds,
                    kBestWindows, result);
  if (args.trace) {
    SetServingLayer(before, after, result);
    SetLmkgCoreLayer(*trace, StageStats(service.get()), result->attempted,
                     *setup.model, kEstimate, result);
    result->Set("query.fingerprint_us", FingerprintUs(pool));
  }

  planner::DirectSource direct(setup.model.get());
  result->Set("plan_cost_ratio",
              PlanCostRatio(FixedPlanSample(labeller, kStarChain, {5, 8}),
                            *setup.graph, &direct));
}

// ---------------------------------------------------------------------------
// plan-bulk

// The bench-owned timing decorator: every pricing call the planner makes
// into the serving layer runs inside a planner.pricing span.
class TimedSource : public planner::CardinalitySource {
 public:
  explicit TimedSource(planner::CardinalitySource* inner) : inner_(inner) {}

  void Trace(Tracer* tracer, uint64_t request) {
    tracer_ = tracer;
    request_ = request;
  }
  double EstimateOne(const query::Query& q) override {
    SpanScope span(tracer_, kPricing, request_);
    ++priced_;
    return inner_->EstimateOne(q);
  }
  void EstimateMany(std::span<const query::Query> queries,
                    std::span<double> out) override {
    SpanScope span(tracer_, kPricing, request_);
    priced_ += queries.size();
    inner_->EstimateMany(queries, out);
  }
  uint64_t priced() const { return priced_; }

 private:
  planner::CardinalitySource* inner_;
  Tracer* tracer_ = nullptr;
  uint64_t request_ = 0;
  uint64_t priced_ = 0;
};

// Draws ranks with P(rank r) proportional to 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(util::Pcg32* rng) const {
    const double u = rng->NextDouble();
    return std::min<size_t>(
        static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                            cdf_.begin()),
        cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct PlanCheck {
  uint32_t pool_index = 0;
  std::string plan;
  double cost = 0.0;
};

struct PlanClientStats {
  uint64_t attempted = 0, failed = 0, plans = 0;
  uint64_t considered = 0, priced = 0, memo_hits = 0, greedy = 0;
  uint64_t serving_queries = 0;
  std::vector<PlanCheck> checks;
};

void RunPlanBulk(const Args& args, Trace* trace, RunResult* result) {
  serving::ServiceConfig config;
  config.cache_capacity = kPlanCacheCapacity;
  const LmkgDeployment deployment = SetUpAndStart(
      [&] { return SetUpLmkg("lubm", kLubmScale, {2, 3, 4, 5, 6, 7, 8}); },
      config, result);
  const LmkgSetup& setup = *deployment.setup;
  const std::unique_ptr<serving::EstimatorService>& service =
      deployment.service;
  const rdf::Graph& graph = *setup.graph;
  const sampling::WorkloadGenerator labeller(graph);
  const std::vector<LabeledQuery> pool = DistinctPool(
      labeller, kStarChain, {5, 6, 7, 8}, kPlanPoolPerCombo, kFixedSeed + 1);
  std::vector<std::string> texts;
  const size_t render_failures = RoundTripFailures(pool, graph, &texts);
  if (render_failures > 0)
    result->Fail(std::to_string(render_failures) +
                 " pool queries do not round-trip through SPARQL text");
  std::cerr << "[perfbench] plan-bulk: " << rdf::GraphSummary(graph)
            << ", pool " << pool.size() << " distinct queries\n";

  std::vector<double> estimates;
  for (const LabeledQuery& lq : pool)
    estimates.push_back(setup.model->EstimateCardinality(lq.query));
  SetQError(pool, estimates, result);

  // Each request picks a (topology, size) combo uniformly, then a query
  // of that combo by Zipf rank (rank = order in the fixed pool). Skewing
  // within a combo keeps the size mix, and with it the cost of an average
  // plan, independent of which queries are popular.
  std::map<std::pair<Topology, int>, std::vector<uint32_t>> by_combo;
  for (uint32_t i = 0; i < pool.size(); ++i)
    by_combo[{pool[i].topology, pool[i].size}].push_back(i);
  std::vector<std::vector<uint32_t>> by_rank;
  std::vector<Zipf> zipf;
  for (auto& [combo, indices] : by_combo) {
    zipf.emplace_back(indices.size(), kZipfExponent);
    by_rank.push_back(std::move(indices));
  }

  std::atomic<int> phase{0};
  std::vector<std::unique_ptr<LatencyLog>> logs;
  std::vector<PlanClientStats> stats(2);
  std::vector<Tracer*> tracers(2, nullptr);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 2; ++c) {
    logs.push_back(std::make_unique<LatencyLog>(kPlanSloUs));
    if (args.trace) tracers[c] = trace->Add();
  }
  for (size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      PinToCpu(c);
      util::Pcg32 rng(args.seed, c + 1);
      planner::ServingSource serving_source(service.get(), /*batched=*/true);
      TimedSource source(&serving_source);
      planner::JoinPlanner planner(&source);
      PlanClientStats& s = stats[c];
      LatencyLog& log = *logs[c];
      uint64_t request = c << 48;
      size_t session = 0;
      while (true) {
        const int ph = phase.load(std::memory_order_acquire);
        if (ph == kStop) break;
        const uint32_t combo =
            rng.UniformInt(static_cast<uint32_t>(by_rank.size()));
        const uint32_t index = by_rank[combo][zipf[combo].Draw(&rng)];
        Tracer* tracer = ph > 0 ? tracers[c] : nullptr;
        ++request;
        source.Trace(tracer, request);
        const uint64_t priced_before = source.priced();
        const int64_t t0 = NowNs();
        util::Result<query::Query> parsed = [&] {
          SpanScope span(tracer, kParse, request);
          return query::ParseSparql(texts[index], graph);
        }();
        const planner::Plan* plan = nullptr;
        if (parsed.ok()) {
          SpanScope span(tracer, kPlan, request);
          plan = &planner.PlanQuery(parsed.value());
        }
        const int64_t t1 = NowNs();
        if (++session == kPlansPerSession) {
          planner.ClearMemo();
          session = 0;
        }
        if (ph == 0) continue;
        ++s.attempted;
        if (plan == nullptr || !plan->valid() || !std::isfinite(plan->cost)) {
          ++s.failed;
          log.Add(ph - 1, std::numeric_limits<int64_t>::max());
          continue;
        }
        log.Add(ph - 1, t1 - t0);
        ++s.plans;
        s.considered += plan->subplans_considered;
        s.priced += plan->subplans_priced;
        s.memo_hits += plan->memo_hits;
        s.greedy += plan->used_greedy ? 1 : 0;
        s.serving_queries += source.priced() - priced_before;
        if (s.plans % kPlanCheckEvery == 0)
          s.checks.push_back({index, planner::PlanToString(*plan), plan->cost});
      }
    });
  }
  serving::ServingStatsSnapshot before, after;
  const std::vector<double> window_seconds = RunClosedLoop(
      args, &phase, &clients,
      [&] {
        if (args.trace) StartStageStats(service.get());
        before = service->Stats();
      },
      [&] { after = service->Stats(); });

  PlanClientStats total;
  for (const PlanClientStats& s : stats) {
    total.attempted += s.attempted;
    total.failed += s.failed;
    total.plans += s.plans;
    total.considered += s.considered;
    total.priced += s.priced;
    total.memo_hits += s.memo_hits;
    total.greedy += s.greedy;
    total.serving_queries += s.serving_queries;
  }
  result->attempted = total.attempted;
  result->failed = total.failed;
  SetLatencyMetrics({logs[0].get(), logs[1].get()}, window_seconds,
                    kBestWindows, result);

  // Sampled plans must equal a re-plan priced directly by the serial model.
  planner::DirectSource direct(setup.model.get());
  planner::JoinPlanner replanner(&direct);
  size_t checked = 0;
  for (const PlanClientStats& s : stats) {
    for (const PlanCheck& check : s.checks) {
      const planner::Plan& plan = replanner.PlanQuery(
          query::ParseSparql(texts[check.pool_index], graph).value());
      if (planner::PlanToString(plan) != check.plan ||
          !SameBits(plan.cost, check.cost)) {
        ++result->failed;
        result->Fail("served plan differs from the DirectSource re-plan");
      }
      ++checked;
    }
  }
  if (checked == 0) result->Fail("no plan was sampled for checking");

  if (args.trace) {
    auto frac = [](uint64_t num, uint64_t den) {
      return den == 0 ? 0.0
                      : static_cast<double>(num) / static_cast<double>(den);
    };
    SetServingLayer(before, after, result);
    SetLmkgCoreLayer(*trace, StageStats(service.get()), total.serving_queries,
                     *setup.model, kPricing, result);
    const SpanTotals plan_spans = trace->Totals(kPlan);
    const SpanTotals pricing_spans = trace->Totals(kPricing);
    const double plans =
        std::max<double>(1.0, static_cast<double>(total.plans));
    result->Set("query.parse_us", trace->MeanUs(kParse));
    result->Set("query.fingerprint_us", FingerprintUs(pool));
    result->Set("planner.plan_us", trace->MeanUs(kPlan));
    result->Set("planner.pricing_us",
                static_cast<double>(pricing_spans.total_ns) * 1e-3 / plans);
    result->Set("planner.self_us",
                static_cast<double>(plan_spans.self_ns) * 1e-3 / plans);
    result->Set("planner.memo_hit_frac",
                frac(total.memo_hits, total.considered));
    result->Set("planner.priced_per_plan",
                static_cast<double>(total.priced) / plans);
    result->Set("planner.greedy_frac", frac(total.greedy, total.plans));
  }

  result->Set("plan_cost_ratio",
              PlanCostRatio(FixedPlanSample(labeller, kStarChain, {5, 6, 7, 8}),
                            graph, &direct));
}

// ---------------------------------------------------------------------------
// drift-update

core::AdaptiveLmkgConfig DriftConfig() {
  core::AdaptiveLmkgConfig config;
  config.s_config.hidden_dim = 32;
  config.s_config.epochs = 4;
  config.s_config.seed = kFixedSeed;
  config.train_queries = 150;
  config.workload_options.max_cardinality = kMaxCardinality;
  config.monitor.min_observations = 10;
  config.initial_combos = {{Topology::kStar, 2}};
  config.seed = kFixedSeed;
  return config;
}

const char kTenant[] = "perfbench";

// One set-up of drift-update: dataset, the lifecycle's shadow model
// (trained on star-2; AdaptiveLmkg labels its own training queries, so
// labelling is inside train_s), and the store the serving replicas attach
// from.
struct DriftSetup {
  std::unique_ptr<rdf::Graph> graph;
  std::unique_ptr<core::AdaptiveLmkg> shadow;
  query::Query probe;  // a star-2 query; what each cold start estimates
  double generate_s = 0, train_s = 0, write_s = 0;
};

DriftSetup SetUpDrift(const std::string& store_dir) {
  DriftSetup setup;
  int64_t t = NowNs();
  setup.graph = MakeGraph("swdf", kSwdfScale);
  setup.generate_s = Seconds(NowNs() - t);

  t = NowNs();
  setup.shadow =
      std::make_unique<core::AdaptiveLmkg>(*setup.graph, DriftConfig());
  setup.train_s = Seconds(NowNs() - t);

  t = NowNs();
  std::filesystem::remove_all(store_dir);
  std::unique_ptr<store::ModelStore> writer;
  util::Status status = store::ModelStore::Open(
      store_dir, store::ToStoreArch(DriftConfig()), &writer);
  for (const core::AdaptiveLmkg::Combo& combo : setup.shadow->ModelCombos()) {
    if (!status.ok()) break;
    status = store::WriteModelSegment(writer.get(), kTenant, combo,
                                      setup.shadow->FindModel(combo));
  }
  if (status.ok()) status = writer->Commit();
  if (!status.ok()) {
    std::cerr << "[perfbench] store write failed: " << status.message() << "\n";
    std::exit(1);
  }
  setup.write_s = Seconds(NowNs() - t);
  setup.probe = Label(sampling::WorkloadGenerator(*setup.graph),
                      Topology::kStar, 2, 1, kFixedSeed)
                    .front()
                    .query;
  return setup;
}

// A drift-update deployment: its set-up, the feedback loop, and the
// serving replicas attached from the store. Members are destroyed in
// reverse order: the service goes before the cache and store its
// replicas' weights are mapped from, and before the collector and graph
// it reads.
struct DriftDeployment {
  std::unique_ptr<DriftSetup> setup;
  std::unique_ptr<core::IndependenceEstimator> fallback;
  std::unique_ptr<serving::FeedbackCollector> collector;
  std::unique_ptr<store::ModelStore> store;
  std::unique_ptr<store::StoreCache> cache;
  std::unique_ptr<serving::EstimatorService> service;
};

serving::ServiceConfig DriftServiceConfig(
    serving::FeedbackCollector* collector) {
  serving::ServiceConfig config;
  config.cache_capacity = kDriftCacheCapacity;
  config.workload_tap_capacity = 512;
  config.workload_sample_every = 16;
  config.feedback = collector;
  return config;
}

struct ColdStartTimes {
  std::vector<double> total_ms, open_ms, attach_ms, first_ms;
};

// Cold start from the store: open it, attach one replica per shard, start
// the service, serve one estimate.
void ColdStartDrift(const std::string& store_dir, DriftDeployment* d,
                    ColdStartTimes* times, RunResult* result) {
  d->service.reset();
  d->cache.reset();
  d->store.reset();
  core::AdaptiveLmkgConfig replica_config = DriftConfig();
  replica_config.initial_combos.clear();
  const int64_t t0 = NowNs();
  util::Status status = store::ModelStore::Open(
      store_dir, store::ToStoreArch(DriftConfig()), &d->store);
  const int64_t t1 = NowNs();
  std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas;
  if (status.ok())
    d->cache = std::make_unique<store::StoreCache>(
        *d->store, store::StoreCache::Options{});
  for (size_t i = 0; i < kShards && status.ok(); ++i) {
    auto replica =
        std::make_unique<core::AdaptiveLmkg>(*d->setup->graph, replica_config);
    status = store::AttachReplica(d->cache.get(), kTenant, replica.get());
    replicas.push_back(std::move(replica));
  }
  if (!status.ok()) {
    std::cerr << "[perfbench] store attach failed: " << status.message()
              << "\n";
    std::exit(1);
  }
  const int64_t t2 = NowNs();
  {
    const ServiceCpus service_cpus;
    d->service = std::make_unique<serving::EstimatorService>(
        std::move(replicas), DriftServiceConfig(d->collector.get()));
  }
  const double first = d->service->Estimate(d->setup->probe);
  const int64_t t3 = NowNs();
  if (!SameBits(first, d->setup->shadow->EstimateCardinality(d->setup->probe)))
    result->Fail("store cold-start estimate differs from the trained model");
  times->total_ms.push_back(Seconds(t3 - t0) * 1e3);
  times->open_ms.push_back(Seconds(t1 - t0) * 1e3);
  times->attach_ms.push_back(Seconds(t2 - t1) * 1e3);
  times->first_ms.push_back(Seconds(t3 - t2) * 1e3);
}

void RunDriftUpdate(const Args& args, Trace* trace, RunResult* result) {
  const std::string store_dir =
      args.work_dir + "/store-" + std::to_string(::getpid());
  // Set-up and cold starts interleave as in SetUpAndStart.
  std::vector<double> total, generate, train, write;
  ColdStartTimes cold;
  std::unique_ptr<DriftDeployment> deployment;
  const int64_t start = NowNs();
  for (int r = 0; MoreSetUps(r, start); ++r) {
    deployment.reset();
    deployment = std::make_unique<DriftDeployment>();
    deployment->setup = std::make_unique<DriftSetup>(SetUpDrift(store_dir));
    const DriftSetup& s = *deployment->setup;
    generate.push_back(s.generate_s);
    train.push_back(s.train_s);
    write.push_back(s.write_s);
    total.push_back(s.generate_s + s.train_s + s.write_s);
    deployment->fallback =
        std::make_unique<core::IndependenceEstimator>(*s.graph);
    deployment->collector = std::make_unique<serving::FeedbackCollector>(
        deployment->fallback.get(), serving::FeedbackConfig{});
    for (int c = 0; c < kColdStartsPerSetUp; ++c)
      ColdStartDrift(store_dir, deployment.get(), &cold, result);
  }
  result->Set("setup_s", Median(total));
  result->Set("data.generate_s", Median(generate));
  result->Set("core.train_s", Median(train));
  result->Set("store.write_ms", Median(write) * 1e3);
  result->Set("serving.cold_start_ms", Median(cold.total_ms));
  result->Set("store.open_ms", Median(cold.open_ms));
  result->Set("store.attach_ms", Median(cold.attach_ms));
  result->Set("store.first_estimate_ms", Median(cold.first_ms));
  DriftSetup& setup = *deployment->setup;
  serving::FeedbackCollector& collector = *deployment->collector;
  serving::EstimatorService& service = *deployment->service;
  const rdf::Graph& graph = *setup.graph;
  const sampling::WorkloadGenerator labeller(graph);
  const std::vector<LabeledQuery> star_pool = DistinctPool(
      labeller, {Topology::kStar}, {2}, kDriftPoolPerCombo, kFixedSeed + 1);
  const std::vector<LabeledQuery> chain_pool = DistinctPool(
      labeller, {Topology::kChain}, {3}, kDriftPoolPerCombo, kFixedSeed + 1);
  std::cerr << "[perfbench] drift-update: " << rdf::GraphSummary(graph)
            << ", pools " << star_pool.size() << " star-2 / "
            << chain_pool.size() << " chain-3\n";
  if (star_pool.empty() || chain_pool.empty()) {
    result->Fail("empty drift pool");
    return;
  }

  serving::ModelLifecycleConfig lifecycle_config;
  lifecycle_config.background = false;
  lifecycle_config.store = deployment->store.get();
  lifecycle_config.store_tenant = kTenant;
  lifecycle_config.feedback = &collector;
  serving::ModelLifecycle lifecycle(
      &service, setup.shadow.get(),
      serving::MakeAdaptiveReplicaFactory(graph, DriftConfig()),
      lifecycle_config);

  // The schedule: request i is due at start + i / rate; its query is a
  // chain-3 with probability i / n (the mix slides from star-2 to
  // chain-3), drawn uniformly from that pool. Stateless in (seed, i), so
  // the generator and the harness agree on it without storing it.
  const size_t n = static_cast<size_t>(kDriftRatePerSec * args.seconds);
  auto scheduled = [&](size_t i) -> const query::Query& {
    const uint64_t h = Mix(Mix(args.seed) + i);
    const bool chain = static_cast<double>(h >> 11) * 0x1.0p-53 <
                       static_cast<double>(i) / static_cast<double>(n);
    const std::vector<LabeledQuery>& from = chain ? chain_pool : star_pool;
    return from[Mix(h) % from.size()].query;
  };
  std::vector<size_t> cycle_at;
  for (int k = 1; k <= kDriftCycles; ++k)
    cycle_at.push_back(n * static_cast<size_t>(k) / (kDriftCycles + 1));

  Tracer* gen_tracer = args.trace ? trace->Add() : nullptr;
  Tracer* harness_tracer = args.trace ? trace->Add() : nullptr;
  const serving::ServingStatsSnapshot before = service.Stats();
  const serving::FeedbackStatsSnapshot feedback_before = collector.Stats();
  std::atomic<size_t> completed_prefix{0};
  std::atomic<bool> generator_done{false};
  LatencyLog latency(kDriftSloUs);
  LatencyLog lateness(kDriftSloUs);  // send time - due time
  uint64_t failed = 0;
  int64_t first_due = 0, last_done = 0;

  // The generator spins between sends and polls its outstanding futures,
  // so completions are stamped within a poll of when they resolve.
  // Request k rides slot k % kDriftMaxOutstanding.
  std::thread generator([&] {
    PinToCpu(0);
    constexpr size_t kSlots = kDriftMaxOutstanding;
    const int64_t interval_ns = static_cast<int64_t>(1e9 / kDriftRatePerSec);
    std::vector<std::future<double>> slot(kSlots);
    std::vector<int64_t> slot_sent(kSlots);
    std::vector<uint8_t> slot_done(kSlots, 1);
    size_t head = 0, tail = 0;
    first_due = NowNs() + 1000000;
    auto due = [&](size_t i) {
      return first_due + static_cast<int64_t>(i) * interval_ns;
    };
    auto window = [&](size_t i) { return static_cast<int>(i * kWindows / n); };
    auto poll = [&](size_t k, bool block) {
      std::future<double>& f = slot[k % kSlots];
      if (!block &&
          f.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
        return;
      double value = 0.0;
      bool ok = true;
      try {
        value = f.get();
      } catch (...) {
        ok = false;
      }
      const int64_t now = NowNs();
      slot_done[k % kSlots] = 1;
      last_done = now;
      if (gen_tracer != nullptr)
        gen_tracer->Record(kEstimate, k, slot_sent[k % kSlots], now);
      if (!ok || !std::isfinite(value)) {
        ++failed;
        latency.Add(window(k), std::numeric_limits<int64_t>::max());
      } else {
        latency.Add(window(k), now - due(k));
      }
    };
    while (head < n) {
      const int64_t now = NowNs();
      if (tail < n && now >= due(tail)) {
        if (tail - head == kSlots) {
          poll(head, /*block=*/true);
          while (head < tail && slot_done[head % kSlots]) ++head;
        }
        lateness.Add(window(tail), now - due(tail));
        slot_sent[tail % kSlots] = now;
        slot_done[tail % kSlots] = 0;
        slot[tail % kSlots] = service.EstimateAsync(scheduled(tail));
        ++tail;
      }
      for (size_t k = head; k < tail; ++k)
        if (!slot_done[k % kSlots]) poll(k, false);
      while (head < tail && slot_done[head % kSlots]) ++head;
      completed_prefix.store(head, std::memory_order_release);
    }
    generator_done.store(true, std::memory_order_release);
  });

  // The harness executes every kDriftExecuteEvery-th served query (its true
  // count flows into the collector through the executor's truth sink) and
  // runs one lifecycle cycle at each fixed request count, once it has
  // executed every query due before that count, so each cycle sees the
  // same fed-back truths whatever the harness's pace.
  std::vector<double> cycle_ms;
  size_t swaps = 0, incremental = 0, persisted = 0;
  std::thread harness([&] {
    PinToCpu(1);
    query::Executor executor(graph);
    executor.SetTruthSink(serving::MakeExecutorTruthSink(&collector));
    size_t next_exec = 0, next_cycle = 0;
    while (true) {
      if (next_cycle < cycle_at.size() && next_exec >= cycle_at[next_cycle]) {
        const int64_t t = NowNs();
        serving::LifecycleReport report;
        {
          SpanScope span(harness_tracer, kCycle, next_cycle);
          report = lifecycle.RunOnce();
        }
        cycle_ms.push_back(Seconds(NowNs() - t) * 1e3);
        swaps += report.swapped ? 1 : 0;
        incremental += report.incremental ? 1 : 0;
        persisted += report.persisted ? 1 : 0;
        ++next_cycle;
      } else if (next_cycle == cycle_at.size() &&
                 generator_done.load(std::memory_order_acquire)) {
        break;
      } else if (next_exec < completed_prefix.load(std::memory_order_acquire)) {
        if (next_exec % kDriftExecuteEvery == 0) {
          SpanScope span(harness_tracer, kExecutorCount, next_exec);
          (void)executor.Count(scheduled(next_exec));
        }
        ++next_exec;
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  });
  generator.join();
  harness.join();
  const serving::ServingStatsSnapshot after = service.Stats();

  result->attempted = n;
  result->failed = failed;
  result->Set("requests_per_s",
              static_cast<double>(n) / Seconds(last_done - first_due));
  SetLatencyMetrics({&latency}, {}, kMedianWindow, result);
  std::vector<uint32_t> late;
  for (size_t w = 0; w < kWindows; ++w) lateness.AppendSamples(w, &late);
  result->Set("bench.gen_late_p99_us", Quantile(&late, 0.99) * 1e-3);
  const double late_p50_us = Quantile(&late, 0.50) * 1e-3;
  if (late_p50_us > kDriftMaxLateP50Us)
    result->Fail("the generator fell behind its schedule (median late " +
                 std::to_string(late_p50_us) + " us)");
  if (swaps == 0) result->Fail("no lifecycle cycle swapped a model");

  // After the last cycle: sampled estimates must equal the serial result
  // of a replica rebuilt from the shadow's snapshot (or the fallback for
  // deactivated fingerprints), and the fully drifted mix is scored.
  std::ostringstream snapshot;
  if (!setup.shadow->Save(snapshot).ok())
    result->Fail("shadow snapshot failed");
  auto reference =
      serving::MakeAdaptiveReplicaFactory(graph, DriftConfig())(snapshot.str());
  std::vector<double> drifted;
  for (const LabeledQuery& lq : chain_pool)
    drifted.push_back(service.Estimate(lq.query));
  SetQError(chain_pool, drifted, result);
  for (const std::vector<LabeledQuery>* pool : {&star_pool, &chain_pool}) {
    for (size_t i = 0; i < pool->size(); i += 8) {
      const query::Query& q = (*pool)[i].query;
      const double served = service.Estimate(q);
      const double expected =
          collector.IsDeactivated(query::ComputeFingerprint(q))
              ? collector.FallbackEstimate(q)
              : reference->EstimateCardinality(q);
      if (!SameBits(served, expected)) {
        ++result->failed;
        result->Fail("served estimate differs from the serial replica");
        break;
      }
    }
  }

  if (args.trace) {
    SetServingLayer(before, after, result);
    result->Set("serving.estimate_us", trace->MeanUs(kEstimate));
    result->Set("serving.self_us", trace->MeanUs(kEstimate));
    result->Set("query.executor_count_us", trace->MeanUs(kExecutorCount));
    std::vector<LabeledQuery> served_queries = star_pool;
    served_queries.insert(served_queries.end(), chain_pool.begin(),
                          chain_pool.end());
    result->Set("query.fingerprint_us", FingerprintUs(served_queries));
    const serving::FeedbackStatsSnapshot fb = collector.Stats();
    const uint64_t dropped = fb.dropped - feedback_before.dropped;
    const uint64_t records =
        fb.estimates_noted - feedback_before.estimates_noted +
        fb.truths_recorded - feedback_before.truths_recorded + dropped;
    result->Set("feedback.drop_frac",
                records == 0 ? 0.0
                             : static_cast<double>(dropped) /
                                   static_cast<double>(records));
    result->Set("feedback.pairs_drained",
                static_cast<double>(fb.pairs_drained -
                                    feedback_before.pairs_drained));
    result->Set("lifecycle.cycle_ms", Median(cycle_ms));
    result->Set("lifecycle.incremental_frac",
                swaps == 0 ? 0.0
                           : static_cast<double>(incremental) /
                                 static_cast<double>(swaps));
    result->Set("lifecycle.persisted_frac",
                swaps == 0 ? 0.0
                           : static_cast<double>(persisted) /
                                 static_cast<double>(swaps));
    result->Set("store.resident_bytes",
                static_cast<double>(deployment->cache->ResidentBytes()));
    result->Set("store.mapped_bytes",
                static_cast<double>(deployment->cache->MappedBytes()));
    double flops = 0.0;
    size_t models = 0;
    for (const core::AdaptiveLmkg::Combo& combo : setup.shadow->ModelCombos()) {
      if (core::LmkgS* model = setup.shadow->FindModel(combo)) {
        flops += ForwardFlops(*model);
        ++models;
      }
    }
    result->Set("nn.forward_flops_per_query",
                models == 0 ? 0.0 : flops / static_cast<double>(models));
  }

  {
    const std::vector<LabeledQuery> sample =
        FixedPlanSample(labeller, {Topology::kChain}, {3});
    planner::DirectSource direct(setup.shadow.get());
    result->Set("plan_cost_ratio", PlanCostRatio(sample, graph, &direct));
  }
  // Mapped segments stay valid after their files are unlinked.
  std::filesystem::remove_all(store_dir);
}

// ---------------------------------------------------------------------------

int SelfTest() {
  size_t failures = 0, total = 0;
  for (const auto& [name, scale] :
       std::vector<std::pair<std::string, double>>{{"swdf", kSwdfScale},
                                                   {"lubm", kLubmScale}}) {
    std::unique_ptr<rdf::Graph> graph = MakeGraph(name, scale);
    sampling::WorkloadGenerator generator(*graph);
    const std::vector<LabeledQuery> queries =
        DistinctPool(generator, kStarChain, {2, 3, 5, 8}, 50, kFixedSeed);
    const size_t failed = RoundTripFailures(queries, *graph, nullptr);
    std::cout << "selftest " << name << ": " << queries.size() - failed << "/"
              << queries.size() << " queries round-trip through SPARQL text\n";
    failures += failed;
    total += queries.size();
  }
  return failures == 0 && total > 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) return false;
    key = key.substr(2);
    if (key == "selftest") {
      args->selftest = true;
      continue;
    }
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    try {
      if (key == "workload") args->workload = value;
      else if (key == "seed") args->seed = std::stoull(value);
      else if (key == "seconds") args->seconds = std::stod(value);
      else if (key == "trace") args->trace = std::stoi(value) != 0;
      else if (key == "trace_dir") args->trace_dir = value;
      else if (key == "work_dir") args->work_dir = value;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return args->selftest || (!args->workload.empty() && args->seconds > 0);
}

void PrintJsonNumber(std::ostream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  out << buf;
}

}  // namespace

int main(int argc, char** argv) {
  // util::ThreadPool would add up to three workers to the four threads
  // each workload already runs, on every large forward batch and on
  // training. Oversubscribed that way, plan-bulk's throughput moved by a
  // third between runs of the same code. One lane keeps every workload
  // within its thread budget. Set before any library call creates the
  // pool and before any thread starts.
  // NOLINTNEXTLINE(concurrency-mt-unsafe): single-threaded here.
  setenv("LMKG_THREADS", "1", 1);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload estimate-single|plan-bulk|"
                 "drift-update --seed N --seconds S --trace 0|1 "
                 "[--trace_dir DIR] [--work_dir DIR] | --selftest\n";
    return 2;
  }
  if (args.selftest) return SelfTest();

  std::cerr << "[perfbench] machine: nproc "
            << std::thread::hardware_concurrency() << ", simd "
            << nn::SimdIsaName() << "\n";
  Trace trace;
  RunResult result;
  if (args.workload == "estimate-single") {
    RunEstimateSingle(args, &trace, &result);
  } else if (args.workload == "plan-bulk") {
    RunPlanBulk(args, &trace, &result);
  } else if (args.workload == "drift-update") {
    RunDriftUpdate(args, &trace, &result);
  } else {
    std::cerr << "[perfbench] unknown workload '" << args.workload << "'\n";
    return 2;
  }
  result.Set("peak_rss_mb", PeakRssMb());

  if (args.trace) {
    const double window_ns = args.seconds * 1e9 *
                             static_cast<double>(trace.threads.size());
    result.Set("bench.trace_overhead_frac",
               static_cast<double>(trace.SpanCount()) * SpanCostNs() /
                   std::max(1.0, window_ns));
    std::filesystem::create_directories(args.trace_dir);
    const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".jsonl";
    if (!trace.Write(path)) result.Fail("could not write " + path);
    std::cerr << "[perfbench] spans written to " << path << "\n";
  }
  if (result.failed > 0) result.correct = false;
  for (const auto& [name, value] : result.metrics)
    if (!std::isfinite(value)) result.Fail(name + " is not finite");

  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& spec, bool required) {
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end() && required) {
      std::cerr << "[perfbench] metric " << spec.name << " was not measured\n";
      std::exit(1);
    }
    out << (first ? "" : ", ") << "\"" << spec.name << "\": {\"value\": ";
    PrintJsonNumber(out, it == result.metrics.end() ? 0.0 : it->second);
    out << ", \"unit\": \"" << spec.unit << "\"}";
    first = false;
  };
  if (args.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec, false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec, true);
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}
