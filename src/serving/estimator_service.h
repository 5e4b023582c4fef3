#ifndef LMKG_SERVING_ESTIMATOR_SERVICE_H_
#define LMKG_SERVING_ESTIMATOR_SERVICE_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "query/fingerprint.h"
#include "query/query.h"
#include "serving/query_cache.h"
#include "serving/serving_stats.h"
#include "util/mpsc_ring.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lmkg::serving {

class FeedbackCollector;

/// Tuning knobs of the serving layer. The defaults suit a closed-loop
/// optimizer workload (tens of concurrent plan-pricing clients, repeated
/// candidate queries); see the README "Serving" section for how the knobs
/// trade latency against batch fill. Shard count is NOT a knob here: the
/// service runs one shard per replica it is constructed with — pass as
/// many replicas as cores you want serving to scale across.
struct ServiceConfig {
  /// A shard's batch dispatches as soon as this many requests are
  /// pending on it...
  size_t max_batch_size = 64;
  /// ...or once the oldest pending request has waited this long,
  /// whichever comes first. 0 = dispatch immediately with whatever is
  /// queued ("greedy"): under concurrent load batches still fill
  /// naturally with the requests that arrived while the previous batch
  /// was computing, without the idle-window latency tax.
  size_t max_queue_delay_us = 0;
  /// Slots in each shard's lock-free submission ring (rounded up to a
  /// power of two, floored at max_batch_size). A full ring back-pressures
  /// producers onto a timed park — size it well above max_batch_size so
  /// that only happens under genuine overload.
  size_t ring_capacity = 1024;
  /// Result-cache entries summed across all shards; 0 disables the
  /// cache. Each shard owns an independent slice keyed by the same
  /// fingerprints that route to it, so a query's cache entry lives on
  /// the shard that serves it.
  size_t cache_capacity = 0;
  /// Independently-locked sub-shards inside each serving shard's cache
  /// slice (concurrent CLIENT threads of one shard contend on lookup,
  /// not the shard worker).
  size_t cache_shards = 8;
  /// Live-workload tap: sampled request queries accumulate in small
  /// per-shard rings that DrainWorkloadSamples empties — the signal a
  /// background ModelLifecycle feeds into its WorkloadMonitor to detect
  /// drift. The capacity is summed across shards; 0 disables the tap (no
  /// overhead on the request path).
  size_t workload_tap_capacity = 0;
  /// Sample every Nth request per shard into the tap (clamped to >= 1).
  /// Sampling preserves the workload's combo mix, which is all the
  /// monitor needs.
  size_t workload_sample_every = 1;
  /// When a blocking Estimate targets a shard whose ring is empty and
  /// whose worker is idle (replica mutex uncontended), compute on the
  /// CALLER's thread instead of round-tripping through the worker —
  /// enqueue + park + wake costs more than a single-query forward pass,
  /// which is why 1-core uncached serving used to run ~0.7x the serial
  /// path. Contention (worker mid-batch, concurrent inline caller)
  /// falls back to the queued path, so throughput under load is
  /// unchanged.
  bool inline_execution = true;
  /// Executor-feedback loop (borrowed; must outlive the service; nullptr
  /// disables all feedback paths with zero request-path overhead). When
  /// set, every served estimate is noted in the collector so truths fed
  /// back after execution can be scored against it, and requests whose
  /// fingerprint is on the collector's deactivation list are served
  /// straight from the collector's fallback estimator — bypassing the
  /// cache in BOTH directions (no lookup, no insert), so a deactivation
  /// flip takes effect immediately without an epoch bump and fallback
  /// values never shadow a reactivated model's estimates.
  FeedbackCollector* feedback = nullptr;
};

/// Thread-safe serving front for any core::CardinalityEstimator,
/// structured as N INDEPENDENT SHARDS routed by query::Fingerprint:
/// each shard owns one model replica, one micro-batcher fed by a bounded
/// lock-free MPSC ring, one slice of the result cache, one slice of the
/// workload tap, and its own stats collector — the hot path from
/// submission to completion touches exactly one shard and takes zero
/// cross-shard locks, so closed-loop throughput scales with cores
/// instead of serializing on a global queue mutex.
///
/// Routing: a stable hash of the query's canonical 128-bit fingerprint
/// (Fingerprint::ShardHash) picks the shard, so isomorphic queries —
/// shuffled patterns, renamed variables — always land on the same shard
/// and its cache slice. Concurrent callers submit single queries
/// (blocking Estimate or future-based EstimateAsync); the shard's worker
/// drains its ring through the replica's EstimateCardinalityBatch fast
/// path.
///
/// The micro-batcher is per shard and single-consumer: the shard worker
/// pops whatever is ready, and with max_queue_delay_us > 0 holds the
/// batch open until it fills or the oldest request hits its delay budget
/// (whichever first), parking on the ring rather than spinning.
///
/// Determinism: with a deterministic estimator (LMKG-S — batch results
/// are pinned bit-identical to per-query results), every response equals
/// the serial per-query path regardless of sharding, batching,
/// scheduling, or cache hits; tests/serving_test.cc pins this under a
/// K-thread stress. Sampling estimators (LMKG-U, WanderJoin) consume
/// their RNG in dispatch order, so concurrent serving reorders their
/// draws and a cache hit replays the first estimate — sampling-noise-
/// level effects; disable the cache if replay matters.
///
/// Stats: Stats() merges every shard's collector into one coherent
/// snapshot (counters summed, latency histograms bucket-merged) — see
/// ServingStats::MergeFrom for the read-ordering contract that keeps
/// derived ratios (hit rate, batch fill) from transiently exceeding
/// their true bounds while traffic is live.
///
/// Model generations: the service carries a monotonically increasing
/// epoch shared by all shards. Result-cache entries are tagged with the
/// epoch of the model that computed them and only hit at that epoch, so
/// AdvanceEpoch() atomically invalidates every estimate cached before a
/// model mutation (hot-swap, adaptation, outlier-buffer insert, reload)
/// without a stop-the-world flush — across every shard at once.
/// ReplaceReplica swaps a shard's model under that shard's replica mutex
/// — an in-flight batch finishes on whichever model it locked, and once
/// the caller bumps the epoch, every cached lookup recomputes against
/// the new generation (tests/model_lifecycle_test.cc pins zero stale
/// values across a mid-stream swap). The swap protocol (replace EVERY
/// shard's replica, THEN advance the epoch once) is what makes late
/// stale inserts harmless: a request tags its insert with the epoch
/// captured at submission, so a pre-swap computation landing after the
/// bump is tagged old and never served.
///
/// Ownership: the service owns its replicas and must outlive every
/// outstanding future. Destruction drains every shard's ring (all
/// futures complete) before joining the workers.
class EstimatorService {
 public:
  /// `replicas` are interchangeable models of the SAME estimator (e.g.
  /// one trained LmkgS serialized and loaded R times); at least one.
  /// The service runs one shard per replica.
  EstimatorService(
      std::vector<std::unique_ptr<core::CardinalityEstimator>> replicas,
      const ServiceConfig& config);
  ~EstimatorService();

  EstimatorService(const EstimatorService&) = delete;
  EstimatorService& operator=(const EstimatorService&) = delete;

  /// Blocking single-query estimate: routes to the query's shard,
  /// enqueues, waits for the batch that carries it, returns the
  /// estimate. Safe from any number of threads. The request rides the
  /// caller's stack — no allocation beyond the batch assembly copy.
  double Estimate(const query::Query& q);

  /// Future-based variant: copies `q`, returns immediately. The future
  /// resolves when the carrying batch completes (or on shutdown drain).
  std::future<double> EstimateAsync(const query::Query& q);

  /// Blocking bulk estimate: fans `queries` across shards by fingerprint
  /// in ONE pass — cache hits fill immediately, misses ride a no-wake
  /// ring push, then each touched shard gets a single consumer wakeup —
  /// so a k-query batch costs one publish fence per SHARD instead of one
  /// per query, and every shard's micro-batcher sees the whole sub-batch
  /// at once. Returns after all k results land in `results`
  /// (results.size() must equal queries.size()). Requests ride this
  /// call's stack; no per-query allocation beyond the worker's batch
  /// assembly. This is the planner's sub-plan pricing path.
  void EstimateBatch(std::span<const query::Query> queries,
                     std::span<double> results);

  /// Future-based bulk variant: same amortized submission, returns one
  /// future per query immediately (cache hits resolve pre-fulfilled).
  /// Copies each missing query; safe to destroy `queries` after return.
  std::vector<std::future<double>> EstimateBatchAsync(
      std::span<const query::Query> queries);

  /// One coherent snapshot rolled up across all shards: counters summed,
  /// latency histograms merged, plus the current model epoch and
  /// cumulative stale-entry evictions.
  ServingStatsSnapshot Stats() const;

  /// Not safe against concurrent Estimate calls; quiesce first.
  void ResetStats();

  size_t num_shards() const { return shards_.size(); }
  /// One replica per shard; kept for lifecycle callers that loop
  /// `ReplaceReplica(0..num_replicas())`.
  size_t num_replicas() const { return shards_.size(); }

  /// Current model generation. Starts at 0; only AdvanceEpoch moves it.
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Declares a new model generation: every result cached before this
  /// call stops hitting (evicted lazily on contact), on every shard.
  /// Call AFTER the model mutation is visible to workers — i.e. after
  /// every ReplaceReplica of a swap, or after an external mutation of a
  /// served model completed under its shard's replica mutex.
  void AdvanceEpoch() { epoch_.fetch_add(1, std::memory_order_release); }

  /// Swaps shard `index`'s model for `replacement` under the shard's
  /// replica mutex and returns the previous model. An in-flight batch
  /// holding the mutex finishes on the old model first; the swap itself
  /// is a pointer exchange, so serving never blocks on model preparation
  /// (train and load off-path, then swap). Callers swap every shard,
  /// then AdvanceEpoch() once.
  std::unique_ptr<core::CardinalityEstimator> ReplaceReplica(
      size_t index,
      std::unique_ptr<core::CardinalityEstimator> replacement);

  /// Runs `fn` on shard `index`'s LIVE replica under that shard's
  /// replica mutex — for small in-place mutations (inserting into an
  /// outlier buffer) and for reading per-replica state (stage timings).
  /// Model swaps go through ReplaceReplica instead. The shard's worker
  /// and inline callers block for the duration, so keep `fn` short. A
  /// mutation follows the ReplaceReplica protocol: mutate every shard,
  /// then AdvanceEpoch() once.
  void WithReplica(size_t index,
                   const std::function<void(core::CardinalityEstimator*)>& fn);

  /// Empties every shard's live-workload tap (see
  /// ServiceConfig::workload_tap_*). Safe against concurrent request
  /// traffic; within a shard, samples are in arrival order up to ring
  /// wrap-around.
  std::vector<query::Query> DrainWorkloadSamples();

 private:
  struct Request {
    const query::Query* query = nullptr;  // caller-owned or &owned_query
    query::Query owned_query;             // async path keeps its own copy
    query::Fingerprint fp;
    bool cacheable = false;
    uint64_t epoch = 0;                   // generation at submission
    std::chrono::steady_clock::time_point enqueue_time;
    // Exactly one completion channel: async requests carry a promise
    // (service-owned, deleted after fulfillment); blocking requests live
    // on the caller's stack and wait on their OWN shard's completion
    // condvar for `done` — batches finishing on one shard never wake
    // callers parked on another. (Not C++20 atomic wait/notify: the
    // notifier would touch the caller's stack-resident atomic after the
    // waiter may have observed the value and unwound — the shard-owned
    // condvar has no such lifetime race.)
    std::optional<std::promise<double>> promise;
    std::atomic<bool> done{false};
    double result = 0.0;
  };

  /// Everything one query touches on the hot path lives here; no member
  /// of a shard is ever accessed from another shard's path.
  ///
  /// Lock hierarchy (per shard — no path ever touches another shard's
  /// locks, so the service-wide graph is this one, N times over, with no
  /// edges between copies):
  ///
  ///   replica_mu   serializes batch/inline execution against hot swaps.
  ///                Held across a model forward pass; NEVER nested with
  ///                any other lock (Complete runs after it is released).
  ///   done_mu      completion handshake for blocking callers. Held only
  ///                for the empty pair-with-the-waiter critical section
  ///                and the waiter's predicate loop; never nested.
  ///   tap_mu       workload tap; try-lock on the request path (drop the
  ///                sample under contention), blocking only in the
  ///                lifecycle's DrainWorkloadSamples; never nested.
  ///   ring         lock-free; its internal park_mu_ is leaf-level by
  ///                construction (MpscRing takes no external locks).
  ///   cache        QueryCache's per-sub-shard mutexes, leaf-level —
  ///                taken with no shard lock held and release before
  ///                returning to the caller.
  ///
  /// Because no two of these are ever held together, lock-order cycles
  /// are impossible by construction; the annotations below let Clang
  /// verify the guarded-state half of that argument at compile time.
  struct Shard {
    Shard(std::unique_ptr<core::CardinalityEstimator> model,
          const ServiceConfig& config, size_t cache_capacity,
          size_t tap_capacity);

    util::MpscRing<Request*> ring;
    util::Mutex replica_mu;  // serializes batches against hot swaps
    // Both the pointer (swapped by ReplaceReplica) and the pointee (the
    // model's reused encode/forward scratch) are guarded.
    std::unique_ptr<core::CardinalityEstimator> replica
        LMKG_GUARDED_BY(replica_mu) LMKG_PT_GUARDED_BY(replica_mu);
    QueryCache cache;
    ServingStats stats;

    // Blocking callers of THIS shard park here; the worker signals once
    // per completed batch (empty critical section + NotifyAll closes
    // the store-then-sleep race, see WorkerLoop). The condvar predicate
    // is the request's own atomic `done`, not done_mu-guarded state.
    util::Mutex done_mu;
    util::CondVar done_cv;

    // Per-shard workload tap (ring buffer). try-lock on the request
    // path: under contention a sample is dropped, never stalling a
    // client.
    util::Mutex tap_mu;
    std::vector<query::Query> tap LMKG_GUARDED_BY(tap_mu);
    size_t tap_capacity = 0;  // immutable after construction
    size_t tap_next LMKG_GUARDED_BY(tap_mu) = 0;
    std::atomic<uint64_t> tap_counter{0};

    std::thread worker;  // started by the service after construction
  };

  Shard& ShardFor(const query::Fingerprint& fp) {
    return *shards_[fp.ShardHash() % shards_.size()];
  }

  // Fingerprints q (allocation-free once the thread's scratch is warm),
  // routes to the shard, samples the tap, captures the epoch, and
  // serves from the shard's cache if it can (records stats; returns
  // true with *estimate filled). On false the request is ready to
  // enqueue on *shard.
  bool PrepareAndTryCache(const query::Query& q, Request* request,
                          Shard** shard, double* estimate);
  void MaybeSampleWorkload(Shard& shard, const query::Query& q);
  void WorkerLoop(Shard* shard);
  // Fulfills one request with `value` (cache insert + latency stats).
  void Complete(Shard& shard, Request* request, double value,
                std::chrono::steady_clock::time_point now);

  const ServiceConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace lmkg::serving

#endif  // LMKG_SERVING_ESTIMATOR_SERVICE_H_
