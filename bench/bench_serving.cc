// Serving-subsystem benchmark: closed-loop and open-loop load generation
// over an LUBM workload through serving::EstimatorService — the
// concurrent-request shape the batched pipeline was built for. Clients
// submit single queries; the service micro-batches them into the LMKG-S
// EstimateCardinalityBatch fast path across model replicas, optionally
// with the fingerprint result cache in front.
//
// Closed loop: C client threads, each looping over its own shuffled copy
// of the workload with one outstanding request (the optimizer-in-the-hot-
// loop shape) — sweeps client counts x batcher configs and reports
// achieved qps, p50/p95/p99 end-to-end latency, mean batch fill, and
// cache hit rate, against the serial per-query loop baseline.
//
// Open loop: a dispatcher submits EstimateAsync at a fixed arrival rate
// regardless of completions (the heavy-traffic shape), showing how the
// coalescing delay trades tail latency for batch fill below saturation.
//
// Workload shift: the model-lifecycle scenario — AdaptiveLmkg replicas
// covering only star combos serve a client stream that shifts to chains;
// a serving::ModelLifecycle cycle detects the drift from the service's
// workload tap, trains the missing chain models on a shadow replica off
// the serving path, hot-swaps the replicas, and bumps the cache epoch.
// Reports chain qps and median q-error before vs after the swap,
// adaptation cost, and stale-cache evictions.
//
// Feedback loop: the executor-feedback scenario — the same drift is run
// TWICE over a fixed star-2 working set the model has never seen: once
// with the full loop closed (served estimates noted in a
// FeedbackCollector, every query executed through query::Executor whose
// truth sink feeds the collector, lifecycle cycles draining the pairs
// into blended incremental retrains, each pushed to the replicas as a
// snapshot swap) and once with
// feedback disabled (same serving + lifecycle, no collector). The
// feedback run's median q-error must converge measurably below the
// feedback-off run's; the JSON's feedback_loop.qerror_convergence_ratio
// (off/on final medians, > 1 = feedback wins) is gated as a
// machine-relative floor on the gcc Release CI leg.
//
// SWDF correlated drift: a NON-GATED accuracy track on the skewed SWDF
// dataset, where the workload mix slides from star-2 to chain-3 over
// several phases (topology and size drifting together). Reports the
// adaptive replica's median q-error per phase against the frozen
// independence baseline, plus the post-adaptation re-score of the fully
// drifted mix — the adaptation win LUBM's uniform data cannot show.
// Emitted as the JSON's swdf_drift object; nothing gates it.
//
// Emits BENCH_serving.json; CI gates the closed-loop 16-client metrics
// against the machine-class baseline
// bench/baselines/serving_baseline_{N}core.json (selected by the JSON's
// hardware_threads) via scripts/check_bench_regression.py, and
// additionally gates 4-shard vs 1-shard scaling from two runs of the
// same job (--scaling mode).
//
// Two gated metrics, both measured separately from the sweep as best of
// --repeats timings (single passes swing with scheduler timing on small
// machines; the steady-state path only slows down under interference,
// so max is the robust statistic, same protocol as
// bench_throughput_batch):
//   closed_loop_16_qps          cached config, cache warmed by one full
//                               pass (the production config)
//   closed_loop_16_uncached_qps greedy config, no cache — every request
//                               crosses the ring into a batch compute,
//                               so THIS is the metric that scales with
//                               shards (the cached one noise-floors on
//                               the lock-free hit path)
// The JSON also reports uncached_vs_serial (closed_loop_16_uncached_qps
// over the serial loop): with the inline-execution fast path an idle
// single-shard service runs uncontended requests on the caller thread,
// which lifted this ratio from ~0.70x to ~0.87x on a 1-core container
// (and single-client uncached qps by 2.2x) — the residual gap to serial
// is the fingerprint + stats + mutex bookkeeping a service request pays
// and a bare virtual call does not.
//
// Flags: the common suite flags (--scale, --seed, --queries, ...) plus
//   --rounds=N    closed-loop passes over the workload per client
//                 (default 3)
//   --repeats=N   independent timings of the gated steady-state
//                 measurement; the best is reported (default 3)
//   --shards=N    serving shards = model replicas inside the service
//                 (default 0 = one per hardware thread)
//   --smoke       CI-sized run: scale 0.01, client counts {1,4,16},
//                 2 rounds (the gated 16-client entries are still
//                 emitted)
//   --out=PATH    JSON output path (default BENCH_serving.json)
#include <algorithm>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/adaptive.h"
#include "core/lmkg_s.h"
#include "core/single_pattern.h"
#include "data/dataset.h"
#include "encoding/query_encoder.h"
#include "eval/suite.h"
#include "nn/tensor.h"
#include "query/executor.h"
#include "serving/estimator_service.h"
#include "serving/feedback_collector.h"
#include "serving/model_lifecycle.h"
#include "util/flags.h"
#include "util/math.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace lmkg;

struct BatcherConfig {
  std::string name;
  size_t max_batch_size;
  size_t max_queue_delay_us;
  bool cache;
};

struct RunResult {
  double qps = 0.0;
  serving::ServingStatsSnapshot stats;
};

// One trained LMKG-S serialized once; every service replica is a fresh
// Load of the same blob ("train once in the creation phase, reuse
// thereafter" — here across replicas).
class ReplicaFactory {
 public:
  ReplicaFactory(const rdf::Graph& graph, int max_size,
                 const core::LmkgSConfig& config,
                 const std::vector<sampling::LabeledQuery>& train)
      : graph_(graph), max_size_(max_size), config_(config) {
    core::LmkgS model(NewEncoder(), config_);
    model.Train(train);
    std::ostringstream blob;
    if (!model.Save(blob).ok()) {
      std::cerr << "[serving] model serialization failed\n";
      std::exit(1);
    }
    blob_ = blob.str();
  }

  std::unique_ptr<core::CardinalityEstimator> NewReplica() const {
    auto replica =
        std::make_unique<core::LmkgS>(NewEncoder(), config_);
    std::istringstream blob(blob_);
    if (!replica->Load(blob).ok()) {
      std::cerr << "[serving] replica load failed\n";
      std::exit(1);
    }
    return replica;
  }

  std::vector<std::unique_ptr<core::CardinalityEstimator>> Replicas(
      size_t n) const {
    std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas;
    replicas.reserve(n);
    for (size_t i = 0; i < n; ++i) replicas.push_back(NewReplica());
    return replicas;
  }

  std::unique_ptr<core::LmkgS> NewModel() const {
    auto model = std::make_unique<core::LmkgS>(NewEncoder(), config_);
    std::istringstream blob(blob_);
    if (!model->Load(blob).ok()) std::exit(1);
    return model;
  }

 private:
  std::unique_ptr<encoding::QueryEncoder> NewEncoder() const {
    return encoding::MakeSgEncoder(graph_, max_size_ + 1, max_size_,
                                   encoding::TermEncoding::kBinary);
  }

  const rdf::Graph& graph_;
  int max_size_;
  core::LmkgSConfig config_;
  std::string blob_;
};

// Queries/sec of the pre-serving status quo: one thread, one virtual
// call per query.
double MeasureSerial(core::LmkgS* model,
                     const std::vector<query::Query>& queries,
                     int rounds, int repeats) {
  double best = 0.0;
  std::vector<double> out(queries.size(), 0.0);
  for (int rep = 0; rep < repeats; ++rep) {
    util::Stopwatch timer;
    for (int round = 0; round < rounds; ++round)
      for (size_t i = 0; i < queries.size(); ++i)
        out[i] = model->EstimateCardinality(queries[i]);
    best = std::max(best, static_cast<double>(queries.size()) * rounds /
                              timer.ElapsedSeconds());
  }
  return best;
}

// Closed loop: `clients` threads, each `rounds` passes over its own
// shuffled order, one outstanding blocking request each.
RunResult RunClosedLoop(serving::EstimatorService* service,
                        const std::vector<query::Query>& queries,
                        size_t clients, int rounds, uint64_t seed) {
  service->ResetStats();
  util::Stopwatch timer;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<size_t> order(queries.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      util::Pcg32 rng(seed + c);
      for (int round = 0; round < rounds; ++round) {
        rng.Shuffle(&order);
        for (size_t i : order) (void)service->Estimate(queries[i]);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double seconds = timer.ElapsedSeconds();
  RunResult result;
  result.stats = service->Stats();
  result.qps = static_cast<double>(result.stats.requests) / seconds;
  return result;
}

// Open loop: submit EstimateAsync at `target_qps` regardless of
// completions; the futures' completion is awaited at the end.
RunResult RunOpenLoop(serving::EstimatorService* service,
                      const std::vector<query::Query>& queries,
                      double target_qps, size_t total_requests,
                      uint64_t seed) {
  service->ResetStats();
  std::vector<std::future<double>> futures;
  futures.reserve(total_requests);
  util::Pcg32 rng(seed);
  util::Stopwatch timer;
  const double interval_s = 1.0 / target_qps;
  for (size_t i = 0; i < total_requests; ++i) {
    const double due = static_cast<double>(i) * interval_s;
    while (timer.ElapsedSeconds() < due) {
      // Busy-wait keeps the pacing tight at microsecond intervals.
    }
    const size_t pick = rng.UniformInt(static_cast<uint32_t>(
        queries.size()));
    futures.push_back(service->EstimateAsync(queries[pick]));
  }
  for (auto& f : futures) (void)f.get();
  const double seconds = timer.ElapsedSeconds();
  RunResult result;
  result.stats = service->Stats();
  result.qps = static_cast<double>(total_requests) / seconds;
  return result;
}

std::string StatsJson(const RunResult& result) {
  return util::StrFormat(
      "\"qps\": %.1f, \"p50_us\": %.2f, \"p95_us\": %.2f, "
      "\"p99_us\": %.2f, \"mean_us\": %.2f, \"mean_batch_fill\": %.2f, "
      "\"cache_hit_rate\": %.4f",
      result.qps, result.stats.p50_us, result.stats.p95_us,
      result.stats.p99_us, result.stats.mean_us,
      result.stats.mean_batch_fill, result.stats.cache_hit_rate);
}

}  // namespace

int main(int argc, char** argv) {
  using query::Topology;
  eval::SuiteOptions options = eval::SuiteOptionsFromFlags(argc, argv);
  util::Flags flags(argc, argv);
  const bool smoke = flags.Has("smoke");
  if (smoke) {
    // CI-sized preset; explicit flags still win.
    if (!flags.Has("scale")) options.dataset_scale = 0.01;
    if (!flags.Has("queries")) options.test_queries_per_combo = 40;
    if (!flags.Has("train_queries"))
      options.train_queries_per_combo = 200;
    if (!flags.Has("s_epochs"))
      options.s_epochs = std::min(options.s_epochs, 6);
  }
  const int rounds =
      static_cast<int>(flags.GetInt("rounds", smoke ? 2 : 3));
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  // One serving shard per replica; 0 = shard-per-core.
  size_t shards = static_cast<size_t>(flags.GetInt("shards", 0));
  if (shards == 0)
    shards = std::max<size_t>(1, std::thread::hardware_concurrency());
  const std::string out_path = flags.GetString("out", "BENCH_serving.json");
  std::vector<size_t> client_counts = {1, 4, 16, 64};
  if (smoke) client_counts = {1, 4, 16};

  // Batcher configurations under sweep. "greedy" dispatches with
  // whatever is queued (pure natural batching: fill grows with load);
  // "delay200" holds batches open up to 200us (trades latency for fill —
  // pays off in the open-loop section, taxes a closed loop); "cached"
  // is greedy plus the fingerprint LRU in front — the production config
  // and the one CI gates.
  const std::vector<BatcherConfig> configs = {
      {"greedy", 64, 0, false},
      {"delay200", 64, 200, false},
      {"cached", 64, 0, true},
  };
  const std::string gated_config = "cached";
  const size_t gated_clients = 16;

  rdf::Graph graph =
      data::MakeDataset("lubm", options.dataset_scale, options.seed);
  std::cerr << "[serving] " << rdf::GraphSummary(graph) << "\n";

  const int max_size = options.query_sizes.back();
  core::LmkgSConfig model_config;
  model_config.hidden_dim = options.s_hidden_dim;
  model_config.epochs = std::min(options.s_epochs, 10);  // accuracy unused
  model_config.seed = options.seed;

  sampling::WorkloadGenerator generator(graph);
  std::vector<sampling::LabeledQuery> train;
  std::vector<query::Query> workload;
  // Small-size per-topology slices for the workload-shift phase (its
  // adaptive models train per combo, so it sticks to sizes 2-3).
  std::vector<query::Query> shift_star_queries;
  std::vector<query::Query> shift_chain_queries;
  std::vector<sampling::LabeledQuery> shift_chain_tests;
  size_t combo = 0;
  for (Topology topology : {Topology::kStar, Topology::kChain}) {
    for (int size : options.query_sizes) {
      sampling::WorkloadGenerator::Options wopts;
      wopts.topology = topology;
      wopts.query_size = size;
      wopts.max_cardinality = options.max_cardinality;
      wopts.count = options.train_queries_per_combo;
      wopts.seed = options.seed + 7919 * combo + 1;
      auto labeled = generator.Generate(wopts);
      train.insert(train.end(), labeled.begin(), labeled.end());
      wopts.count = options.test_queries_per_combo;
      wopts.seed = options.seed + 7919 * combo + 104729;
      for (auto& lq : generator.Generate(wopts)) {
        if (size <= 3) {
          if (topology == Topology::kStar) {
            shift_star_queries.push_back(lq.query);
          } else {
            shift_chain_queries.push_back(lq.query);
            shift_chain_tests.push_back(lq);
          }
        }
        workload.push_back(std::move(lq.query));
      }
      ++combo;
    }
  }
  std::cerr << "[serving] training LMKG-S on " << train.size()
            << " queries...\n";
  ReplicaFactory factory(graph, max_size, model_config, train);
  std::cerr << "[serving] workload " << workload.size() << " queries, "
            << rounds << " rounds/client, " << shards
            << " shards (one replica each)\n";

  // Baseline: the serial per-query loop (no service, no threads).
  auto serial_model = factory.NewModel();
  const double serial_qps =
      MeasureSerial(serial_model.get(), workload, rounds, 3);

  util::TablePrinter table(util::StrFormat(
      "EstimatorService closed loop (LUBM, qps, simd=%s)",
      nn::SimdIsaName()));
  table.SetHeader({"config", "clients", "qps", "vs serial", "p50 us",
                   "p99 us", "fill", "hit rate"});
  table.AddRow("serial", {1.0, serial_qps, 1.0, 0.0, 0.0, 0.0, 0.0});

  std::ostringstream closed_json;
  bool first_entry = true;
  for (const BatcherConfig& config : configs) {
    for (size_t clients : client_counts) {
      serving::ServiceConfig service_config;
      service_config.max_batch_size = config.max_batch_size;
      service_config.max_queue_delay_us = config.max_queue_delay_us;
      service_config.cache_capacity = config.cache ? 65536 : 0;
      serving::EstimatorService service(factory.Replicas(shards),
                                        service_config);
      // Warm-up pass (scratch buffers, first-touch pages) — skipped for
      // cached configs so the measured run starts with a COLD cache and
      // the reported hit rate reflects the workload's repeat structure,
      // not a pre-filled cache.
      if (!config.cache)
        RunClosedLoop(&service, workload, std::min<size_t>(clients, 4), 1,
                      options.seed + 17);
      const RunResult result = RunClosedLoop(
          &service, workload, clients, rounds, options.seed + 1000);
      table.AddRow(
          util::StrFormat("%s/%zu", config.name.c_str(), clients),
          {static_cast<double>(clients), result.qps,
           result.qps / serial_qps, result.stats.p50_us,
           result.stats.p99_us, result.stats.mean_batch_fill,
           result.stats.cache_hit_rate});
      closed_json << (first_entry ? "" : ",\n")
                  << "    {\"config\": \"" << config.name
                  << "\", \"clients\": " << clients
                  << ", \"max_batch_size\": " << config.max_batch_size
                  << ", \"max_queue_delay_us\": "
                  << config.max_queue_delay_us
                  << ", \"cache\": " << (config.cache ? "true" : "false")
                  << ", " << StatsJson(result) << "}";
      first_entry = false;
    }
  }
  table.Print(std::cout);

  // The gated metrics: steady-state closed-loop qps at 16 clients, best
  // of `repeats` timings (single passes swing with scheduler timing;
  // the steady-state path only slows down under interference, so max is
  // the robust statistic, as in bench_throughput_batch).
  //
  // Cached: the production config, cache warmed by one full pass — the
  // absolute-throughput gate. Uncached (greedy, no cache): every request
  // crosses the ring into a batch compute on its shard's replica, so
  // this is the number that must scale with shard count (the
  // cross-shard-run scaling gate compares it between a 1-shard and a
  // 4-shard run of the same job).
  double gated_qps = 0.0;
  double gated_uncached_qps = 0.0;
  {
    const BatcherConfig* gated = nullptr;
    for (const BatcherConfig& config : configs)
      if (config.name == gated_config) gated = &config;
    serving::ServiceConfig service_config;
    service_config.max_batch_size = gated->max_batch_size;
    service_config.max_queue_delay_us = gated->max_queue_delay_us;
    service_config.cache_capacity = gated->cache ? 65536 : 0;
    serving::EstimatorService service(factory.Replicas(shards),
                                      service_config);
    RunClosedLoop(&service, workload, gated_clients, 1,
                  options.seed + 17);  // warm-up (fills the cache)
    for (int rep = 0; rep < repeats; ++rep) {
      const RunResult result = RunClosedLoop(
          &service, workload, gated_clients, rounds, options.seed + rep);
      gated_qps = std::max(gated_qps, result.qps);
    }
    std::cout << util::StrFormat(
        "\ngated steady-state qps (%s, %zu clients, best of %d): %.0f\n",
        gated_config.c_str(), gated_clients, repeats, gated_qps);
  }
  {
    serving::ServiceConfig service_config;
    service_config.max_batch_size = 64;
    service_config.max_queue_delay_us = 0;
    service_config.cache_capacity = 0;
    serving::EstimatorService service(factory.Replicas(shards),
                                      service_config);
    RunClosedLoop(&service, workload, std::min<size_t>(gated_clients, 4),
                  1, options.seed + 19);  // warm-up (scratch, pages)
    for (int rep = 0; rep < repeats; ++rep) {
      const RunResult result = RunClosedLoop(
          &service, workload, gated_clients, rounds, options.seed + rep);
      gated_uncached_qps = std::max(gated_uncached_qps, result.qps);
    }
    std::cout << util::StrFormat(
        "gated uncached qps (greedy, %zu clients, %zu shards, best of "
        "%d): %.0f\n",
        gated_clients, shards, repeats, gated_uncached_qps);
  }

  // Open loop at fractions of the serial baseline: latency under a
  // steady arrival stream, no client back-pressure.
  const std::vector<double> rate_fractions = {0.25, 0.5};
  std::ostringstream open_json;
  util::TablePrinter open_table("EstimatorService open loop (LUBM)");
  open_table.SetHeader(
      {"target qps", "achieved", "p50 us", "p99 us", "fill"});
  for (size_t i = 0; i < rate_fractions.size(); ++i) {
    const double target = serial_qps * rate_fractions[i];
    const size_t total = std::min<size_t>(
        workload.size() * static_cast<size_t>(rounds) * 4, 20000);
    serving::ServiceConfig service_config;
    service_config.max_batch_size = 64;
    service_config.max_queue_delay_us = 200;
    serving::EstimatorService service(factory.Replicas(shards),
                                      service_config);
    const RunResult result = RunOpenLoop(&service, workload, target,
                                         total, options.seed + 2000);
    open_table.AddRow(
        util::StrFormat("%.0f", target),
        {result.qps, result.stats.p50_us, result.stats.p99_us,
         result.stats.mean_batch_fill});
    open_json << (i == 0 ? "" : ",\n") << "    {\"target_qps\": "
              << target << ", " << StatsJson(result) << "}";
  }
  open_table.Print(std::cout);

  // Workload shift: the drift -> adapt -> hot-swap loop under traffic.
  // Replicas are AdaptiveLmkg instances bootstrapped with star models
  // only; clients settle on stars, then shift to chains. One synchronous
  // ModelLifecycle cycle (reproducibility — production runs it on a
  // background thread) drains the tap, trains the chain models on the
  // shadow off the serving path, swaps the replicas, and bumps the
  // cache epoch.
  double shift_pre_qps = 0.0, shift_post_qps = 0.0;
  double shift_pre_qerr = 0.0, shift_post_qerr = 0.0;
  double shift_adapt_seconds = 0.0;
  size_t shift_models_created = 0;
  uint64_t shift_stale_evictions = 0, shift_epoch = 0;
  {
    core::AdaptiveLmkgConfig aconfig;
    aconfig.s_config.hidden_dim = std::min<size_t>(options.s_hidden_dim, 64);
    aconfig.s_config.epochs = std::min(options.s_epochs, 6);
    aconfig.s_config.seed = options.seed;
    aconfig.train_queries = options.train_queries_per_combo;
    aconfig.workload_options.max_cardinality = options.max_cardinality;
    aconfig.monitor.min_observations = 30;
    aconfig.monitor.decay = 0.98;
    aconfig.initial_combos = {{Topology::kStar, 2}, {Topology::kStar, 3}};
    aconfig.seed = options.seed + 5;
    core::AdaptiveLmkg shadow(graph, aconfig);

    serving::ModelLifecycle::ReplicaFactory replica_factory =
        serving::MakeAdaptiveReplicaFactory(graph, aconfig);
    std::ostringstream boot;
    if (!shadow.Save(boot).ok()) {
      std::cerr << "[serving] shadow snapshot failed\n";
      std::exit(1);
    }
    std::vector<std::unique_ptr<core::CardinalityEstimator>> areplicas;
    for (size_t r = 0; r < shards; ++r)
      areplicas.push_back(replica_factory(boot.str()));

    serving::ServiceConfig shift_config;
    shift_config.max_batch_size = 64;
    shift_config.cache_capacity = 65536;
    shift_config.workload_tap_capacity = 1024;
    serving::EstimatorService service(std::move(areplicas), shift_config);
    serving::ModelLifecycleConfig lconfig;
    lconfig.background = false;
    lconfig.min_samples_per_cycle = 1;
    serving::ModelLifecycle lifecycle(&service, &shadow, replica_factory,
                                      lconfig);

    const size_t shift_clients = 4;
    // Settle on the star mix; the steady cycle must not churn anything.
    RunClosedLoop(&service, shift_star_queries, shift_clients, 1,
                  options.seed + 31);
    (void)lifecycle.RunOnce();

    // Mixed size order: the monitor weights recent observations, and a
    // size-sorted pass would make only the trailing combo look hot.
    {
      util::Pcg32 rng(options.seed + 37);
      rng.Shuffle(&shift_chain_tests);
    }
    auto median_qerror = [&] {
      std::vector<double> qerrors;
      qerrors.reserve(shift_chain_tests.size());
      for (const auto& lq : shift_chain_tests)
        qerrors.push_back(
            util::QError(service.Estimate(lq.query), lq.cardinality));
      return util::QErrorStats::Compute(std::move(qerrors)).median;
    };

    const RunResult pre = RunClosedLoop(&service, shift_chain_queries,
                                        shift_clients, rounds,
                                        options.seed + 33);
    shift_pre_qps = pre.qps;
    shift_pre_qerr = median_qerror();

    util::Stopwatch adapt_timer;
    const serving::LifecycleReport cycle = lifecycle.RunOnce();
    shift_adapt_seconds = adapt_timer.ElapsedSeconds();
    shift_models_created = cycle.adapt.created.size();
    if (!cycle.swapped)
      std::cerr << "[serving] WARNING: workload shift did not trigger a "
                   "swap\n";

    const RunResult post = RunClosedLoop(&service, shift_chain_queries,
                                         shift_clients, rounds,
                                         options.seed + 35);
    shift_post_qps = post.qps;
    shift_post_qerr = median_qerror();
    shift_stale_evictions = service.Stats().cache_stale_evictions;
    shift_epoch = service.epoch();

    util::TablePrinter shift_table(
        "Workload shift: drift -> adapt -> hot-swap (chains)");
    shift_table.SetHeader({"phase", "qps", "median q-error"});
    shift_table.AddRow("pre-swap", {shift_pre_qps, shift_pre_qerr});
    shift_table.AddRow("post-swap", {shift_post_qps, shift_post_qerr});
    shift_table.Print(std::cout);
    std::cout << util::StrFormat(
        "lifecycle: %zu models trained off-path in %.1fs, epoch %llu, "
        "%llu stale cache entries evicted\n",
        shift_models_created, shift_adapt_seconds,
        static_cast<unsigned long long>(shift_epoch),
        static_cast<unsigned long long>(shift_stale_evictions));
  }

  // Feedback loop: drift onto a FIXED star-2 working set the synthetic
  // training distribution never sampled, run twice under identical
  // serving + lifecycle configs — once with the loop closed (collector +
  // executor truth sink + feedback retrains), once open. Convergence is
  // the median q-error over the working set after each lifecycle cycle;
  // the gated ratio compares the two runs' final medians.
  const size_t fb_cycles = smoke ? 3 : 4;
  std::vector<double> fb_on_curve, fb_off_curve;
  size_t fb_incremental_swaps = 0, fb_pairs_drained = 0;
  size_t fb_deactivated = 0, fb_queries = 0;
  {
    // The drift working set: labeled star-2 queries from a seed disjoint
    // from every synthetic training seed the shadow uses.
    sampling::WorkloadGenerator::Options drift_opts;
    drift_opts.topology = Topology::kStar;
    drift_opts.query_size = 2;
    drift_opts.max_cardinality = options.max_cardinality;
    drift_opts.count = smoke ? 48 : 96;
    drift_opts.seed = options.seed + 271828;
    const std::vector<sampling::LabeledQuery> drift =
        generator.Generate(drift_opts);
    fb_queries = drift.size();

    auto run_drift = [&](bool with_feedback, std::vector<double>* curve) {
      core::AdaptiveLmkgConfig aconfig;
      aconfig.s_config.hidden_dim =
          std::min<size_t>(options.s_hidden_dim, 64);
      aconfig.s_config.epochs = std::min(options.s_epochs, 6);
      aconfig.s_config.seed = options.seed;
      aconfig.train_queries = options.train_queries_per_combo;
      aconfig.workload_options.max_cardinality = options.max_cardinality;
      // Freeze the pool: this phase isolates the FEEDBACK path (weights
      // change, pool doesn't), so every swap is weights-only and counts
      // as incremental.
      aconfig.monitor.min_observations = 1u << 30;
      aconfig.initial_combos = {{Topology::kStar, 2}};
      aconfig.seed = options.seed + 11;
      core::AdaptiveLmkg shadow(graph, aconfig);

      core::IndependenceEstimator fallback(graph);
      serving::FeedbackCollector collector(&fallback,
                                           serving::FeedbackConfig{});
      query::Executor executor(graph);
      if (with_feedback)
        executor.SetTruthSink(serving::MakeExecutorTruthSink(&collector));

      serving::ModelLifecycle::ReplicaFactory replica_factory =
          serving::MakeAdaptiveReplicaFactory(graph, aconfig);
      std::ostringstream boot;
      if (!shadow.Save(boot).ok()) {
        std::cerr << "[serving] feedback shadow snapshot failed\n";
        std::exit(1);
      }
      std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas;
      for (size_t r = 0; r < shards; ++r)
        replicas.push_back(replica_factory(boot.str()));

      serving::ServiceConfig fconfig;
      fconfig.max_batch_size = 64;
      fconfig.cache_capacity = 65536;
      fconfig.workload_tap_capacity = 1024;
      if (with_feedback) fconfig.feedback = &collector;
      serving::EstimatorService service(std::move(replicas), fconfig);

      serving::ModelLifecycleConfig lconfig;
      lconfig.background = false;
      lconfig.min_samples_per_cycle = 1;
      if (with_feedback) lconfig.feedback = &collector;
      serving::ModelLifecycle lifecycle(&service, &shadow, replica_factory,
                                        lconfig);

      auto median_qerror = [&] {
        std::vector<double> qerrors;
        qerrors.reserve(drift.size());
        for (const auto& lq : drift)
          qerrors.push_back(
              util::QError(service.Estimate(lq.query), lq.cardinality));
        return util::QErrorStats::Compute(std::move(qerrors)).median;
      };

      curve->push_back(median_qerror());  // pre-drift baseline
      for (size_t cycle = 0; cycle < fb_cycles; ++cycle) {
        for (const auto& lq : drift) {
          (void)service.Estimate(lq.query);
          // The closed loop's truth source: EXECUTE the query; the
          // executor's sink records the exact count against the served
          // estimate. The open-loop run skips execution — with no sink
          // installed the count would be pure wasted work.
          if (with_feedback) (void)executor.Count(lq.query);
        }
        (void)lifecycle.RunOnce();
        curve->push_back(median_qerror());
      }
      if (with_feedback) {
        fb_incremental_swaps = lifecycle.incremental_swaps();
        const serving::FeedbackStatsSnapshot stats = collector.Stats();
        fb_pairs_drained = stats.pairs_drained;
        fb_deactivated = stats.deactivated;
      }
    };
    run_drift(/*with_feedback=*/true, &fb_on_curve);
    run_drift(/*with_feedback=*/false, &fb_off_curve);

    util::TablePrinter fb_table(
        "Feedback loop: executor truths -> incremental retrain -> "
        "snapshot swap (star-2 drift, median q-error per cycle)");
    fb_table.SetHeader({"cycle", "feedback on", "feedback off"});
    for (size_t i = 0; i < fb_on_curve.size(); ++i)
      fb_table.AddRow(util::StrFormat("%zu", i),
                      {fb_on_curve[i], fb_off_curve[i]});
    fb_table.Print(std::cout);
    std::cout << util::StrFormat(
        "feedback loop: convergence ratio %.2fx (off/on final medians), "
        "%zu incremental swaps, %zu pairs drained, %zu deactivated\n",
        fb_off_curve.back() / fb_on_curve.back(), fb_incremental_swaps,
        fb_pairs_drained, fb_deactivated);
  }

  // SWDF correlated drift (non-gated accuracy track): the adaptation-win
  // scenario the LUBM phases cannot show — LUBM's generated triples are
  // too uniform for the independence fallback to be badly wrong, so
  // creating a model barely moves the q-error. SWDF's conference data is
  // skewed and its predicates correlate (author/paper/event cluster), so
  // when the workload drifts onto multi-pattern queries the fallback's
  // independence assumption underestimates hard and a freshly trained
  // model visibly wins.
  //
  // The drift is CORRELATED, not a step: over the phases the workload
  // mix slides from all star-2 (covered from boot) to all chain-3
  // (uncovered), topology and size moving together the way a real
  // optimizer's plan mix does. Each phase is served through one
  // AdaptiveLmkg (every estimate feeds its monitor), then Adapt() runs
  // the lifecycle policy once; mid-drift phases are served partly by the
  // fallback until the monitor flags chain-3 hot and a model is trained.
  // Per phase: the served median q-error vs the frozen independence
  // baseline on the same mix. After the last phase the fully-drifted mix
  // is re-scored to isolate the post-adaptation accuracy. Nothing here
  // is gated — the numbers exist to keep the adaptation win visible in
  // every bench-results artifact.
  const size_t drift_phases = smoke ? 4 : 6;
  std::ostringstream swdf_json;
  double swdf_post_adapt = 0.0, swdf_independence_final = 0.0;
  size_t swdf_models_created = 0;
  double swdf_scale = smoke ? 0.02 : 0.1;
  {
    rdf::Graph swdf =
        data::MakeDataset("swdf", swdf_scale, options.seed + 5);
    std::cerr << "[serving] swdf drift: " << rdf::GraphSummary(swdf)
              << "\n";
    sampling::WorkloadGenerator swdf_generator(swdf);
    const size_t per_phase = smoke ? 32 : 64;

    auto make_pool = [&](Topology topology, int size, uint64_t seed) {
      sampling::WorkloadGenerator::Options wopts;
      wopts.topology = topology;
      wopts.query_size = size;
      wopts.max_cardinality = options.max_cardinality;
      wopts.count = per_phase * drift_phases;
      wopts.seed = seed;
      return swdf_generator.Generate(wopts);
    };
    const std::vector<sampling::LabeledQuery> star_pool =
        make_pool(Topology::kStar, 2, options.seed + 314159);
    const std::vector<sampling::LabeledQuery> chain_pool =
        make_pool(Topology::kChain, 3, options.seed + 653589);

    core::AdaptiveLmkgConfig aconfig;
    aconfig.s_config.hidden_dim = std::min<size_t>(options.s_hidden_dim, 32);
    aconfig.s_config.epochs = std::min(options.s_epochs, 4);
    aconfig.s_config.seed = options.seed;
    aconfig.train_queries = smoke ? 80 : options.train_queries_per_combo;
    aconfig.workload_options.max_cardinality = options.max_cardinality;
    aconfig.monitor.min_observations = 10;
    aconfig.initial_combos = {{Topology::kStar, 2}};
    aconfig.seed = options.seed + 13;
    core::AdaptiveLmkg adaptive(swdf, aconfig);
    core::IndependenceEstimator independence(swdf);

    util::TablePrinter drift_table(
        "SWDF correlated drift: star-2 -> chain-3 mix "
        "(median q-error per phase, adaptive vs independence)");
    drift_table.SetHeader(
        {"phase", "chain share", "adaptive", "independence", "models"});

    size_t star_next = 0, chain_next = 0;
    std::vector<sampling::LabeledQuery> final_mix;
    bool swdf_first = true;
    for (size_t phase = 0; phase < drift_phases; ++phase) {
      const double chain_share =
          static_cast<double>(phase) / (drift_phases - 1);
      const size_t chains =
          static_cast<size_t>(chain_share * per_phase + 0.5);
      std::vector<sampling::LabeledQuery> mix;
      mix.reserve(per_phase);
      for (size_t i = 0; i < per_phase; ++i) {
        // Bresenham spread: exactly `chains` chain queries per phase,
        // interleaved evenly instead of bursted at one end.
        const bool take_chain =
            (i + 1) * chains / per_phase > i * chains / per_phase;
        if (take_chain && chain_next < chain_pool.size())
          mix.push_back(chain_pool[chain_next++]);
        else if (star_next < star_pool.size())
          mix.push_back(star_pool[star_next++]);
      }
      std::vector<double> adaptive_qerrors, independence_qerrors;
      adaptive_qerrors.reserve(mix.size());
      independence_qerrors.reserve(mix.size());
      for (const auto& lq : mix) {
        adaptive_qerrors.push_back(util::QError(
            adaptive.EstimateCardinality(lq.query), lq.cardinality));
        independence_qerrors.push_back(util::QError(
            independence.EstimateCardinality(lq.query), lq.cardinality));
      }
      const auto report = adaptive.Adapt();
      swdf_models_created += report.created.size();
      const double adaptive_median =
          util::QErrorStats::Compute(std::move(adaptive_qerrors)).median;
      const double independence_median =
          util::QErrorStats::Compute(std::move(independence_qerrors))
              .median;
      drift_table.AddRow(
          util::StrFormat("%zu", phase),
          {chain_share, adaptive_median, independence_median,
           static_cast<double>(adaptive.num_models())});
      swdf_json << (swdf_first ? "" : ",\n")
                << "    {\"chain_share\": " << chain_share
                << ", \"adaptive_median_qerror\": " << adaptive_median
                << ", \"independence_median_qerror\": "
                << independence_median
                << ", \"models\": " << adaptive.num_models() << "}";
      swdf_first = false;
      if (phase + 1 == drift_phases) final_mix = std::move(mix);
    }

    // Re-score the fully-drifted mix now that every Adapt() has run:
    // the steady-state accuracy of the adapted pool vs the fallback.
    std::vector<double> post_qerrors, ind_qerrors;
    for (const auto& lq : final_mix) {
      post_qerrors.push_back(util::QError(
          adaptive.EstimateCardinality(lq.query), lq.cardinality));
      ind_qerrors.push_back(util::QError(
          independence.EstimateCardinality(lq.query), lq.cardinality));
    }
    swdf_post_adapt =
        util::QErrorStats::Compute(std::move(post_qerrors)).median;
    swdf_independence_final =
        util::QErrorStats::Compute(std::move(ind_qerrors)).median;
    drift_table.Print(std::cout);
    std::cout << util::StrFormat(
        "swdf drift: post-adapt median q-error %.2f vs independence "
        "%.2f on the drifted mix, %zu models created\n",
        swdf_post_adapt, swdf_independence_final, swdf_models_created);
  }

  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"serving\",\n"
       << "  \"estimator\": \"LMKG-S\",\n"
       << "  \"dataset\": \"lubm\",\n"
       << "  \"simd_isa\": \"" << nn::SimdIsaName() << "\",\n"
       << "  \"scale\": " << options.dataset_scale << ",\n"
       << "  \"queries\": " << workload.size() << ",\n"
       << "  \"rounds\": " << rounds << ",\n"
       << "  \"shards\": " << shards << ",\n"
       << "  \"hardware_threads\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"serial_qps\": " << serial_qps << ",\n"
       << "  \"gated_config\": \"" << gated_config << "\",\n"
       << "  \"gated_clients\": " << gated_clients << ",\n"
       << "  \"gated_protocol\": \"steady-state (warm cache), best of "
       << repeats << " timings\",\n"
       << "  \"closed_loop_16_qps\": " << gated_qps << ",\n"
       << "  \"closed_loop_16_uncached_qps\": " << gated_uncached_qps
       << ",\n"
       << "  \"uncached_vs_serial\": "
       << (serial_qps > 0.0 ? gated_uncached_qps / serial_qps : 0.0)
       << ",\n"
       << "  \"closed_loop\": [\n"
       << closed_json.str() << "\n  ],\n"
       << "  \"open_loop\": [\n"
       << open_json.str() << "\n  ],\n"
       << "  \"workload_shift\": {\"clients\": 4, \"models_created\": "
       << shift_models_created
       << ", \"adapt_seconds\": " << shift_adapt_seconds
       << ", \"pre_swap_chain_qps\": " << shift_pre_qps
       << ", \"post_swap_chain_qps\": " << shift_post_qps
       << ", \"pre_swap_chain_median_qerror\": " << shift_pre_qerr
       << ", \"post_swap_chain_median_qerror\": " << shift_post_qerr
       << ", \"stale_cache_evictions\": " << shift_stale_evictions
       << ", \"model_epoch\": " << shift_epoch << "},\n"
       << "  \"feedback_loop\": {\"cycles\": " << fb_cycles
       << ", \"queries\": " << fb_queries
       << ", \"feedback_on_initial_median_qerror\": " << fb_on_curve.front()
       << ", \"feedback_on_final_median_qerror\": " << fb_on_curve.back()
       << ", \"feedback_off_initial_median_qerror\": "
       << fb_off_curve.front()
       << ", \"feedback_off_final_median_qerror\": " << fb_off_curve.back()
       << ", \"incremental_swaps\": " << fb_incremental_swaps
       << ", \"pairs_drained\": " << fb_pairs_drained
       << ", \"deactivated\": " << fb_deactivated
       << ", \"qerror_convergence_ratio\": "
       << (fb_on_curve.back() > 0.0
               ? fb_off_curve.back() / fb_on_curve.back()
               : 0.0)
       << "},\n"
       << "  \"swdf_drift\": {\"dataset\": \"swdf\", \"scale\": "
       << swdf_scale << ", \"gated\": false, \"phases\": [\n"
       << swdf_json.str() << "\n  ]"
       << ", \"post_adapt_median_qerror\": " << swdf_post_adapt
       << ", \"independence_final_median_qerror\": "
       << swdf_independence_final
       << ", \"models_created\": " << swdf_models_created << "}\n"
       << "}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
