#ifndef LMKG_SERVING_FEEDBACK_COLLECTOR_H_
#define LMKG_SERVING_FEEDBACK_COLLECTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/estimator.h"
#include "query/fingerprint.h"
#include "query/query.h"
#include "sampling/workload.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lmkg::serving {

struct FeedbackConfig {
  /// Maximum distinct fingerprints tracked (summed across sub-shards).
  /// A truth for an untracked fingerprint when the store is full is
  /// dropped and counted — the collector never blocks and never grows
  /// past its budget.
  size_t capacity = 4096;
  /// Bounded (query, true cardinality) pairs retained per fingerprint,
  /// overwritten round-robin so the NEWEST truths survive — under drift
  /// the latest executions are the ones worth retraining on.
  size_t max_pairs_per_entry = 4;
  /// Independently try-locked slices of the store. Record-path
  /// contention drops the sample (counted) instead of stalling an
  /// executor, exactly like the serving workload tap.
  size_t sub_shards = 8;
  /// Per-observation decay of the rolling log-q-error means. 0.8 gives a
  /// half-life of ~3 observations: a few good estimates after a retrain
  /// are enough for a recovered fingerprint to cross back under the
  /// reactivation threshold.
  double qerror_decay = 0.8;
  /// Truths observed for a fingerprint before deactivation may trigger
  /// (never deactivate on one unlucky estimate).
  size_t min_observations = 8;
  /// Deactivate when the model's rolling q-error exceeds
  /// `deactivate_ratio` x the fallback's rolling q-error for the same
  /// fingerprint (the model must be losing CLEARLY, not within noise).
  double deactivate_ratio = 2.0;
  /// Reactivate a deactivated fingerprint once the probed model's
  /// rolling q-error drops under `reactivate_ratio` x the fallback's.
  /// The gap to deactivate_ratio is hysteresis: a fingerprint on the
  /// boundary cannot flap between routes on every cycle.
  double reactivate_ratio = 1.1;
};

/// One fed-back training example: a served query with the true
/// cardinality its execution produced.
struct FeedbackPair {
  query::Query query;
  double true_cardinality = 0.0;
};

/// What one UpdateDeactivation pass changed and sees.
struct DeactivationReport {
  size_t deactivated = 0;    // newly deactivated this pass
  size_t reactivated = 0;    // newly reactivated this pass
  size_t total_deactivated = 0;  // list size after the pass
};

/// Point-in-time counters of the collector.
struct FeedbackStatsSnapshot {
  uint64_t estimates_noted = 0;
  uint64_t truths_recorded = 0;
  /// Truths that arrived with no noted estimate to score against.
  uint64_t unmatched_truths = 0;
  /// Records dropped because the store hit capacity or the sub-shard
  /// lock was contended — the price of never blocking an executor.
  uint64_t dropped = 0;
  uint64_t probes = 0;        // shadow model probes of deactivated entries
  uint64_t pairs_drained = 0; // cumulative, across DrainTrainingPairs calls
  size_t entries = 0;
  size_t deactivated = 0;
};

/// Closes the paper's execution-phase loop the way PostgreSQL's AQO does:
/// after a query EXECUTES, its true cardinality flows back here, keyed by
/// the same canonical fingerprint the serving cache and shards route on.
/// The collector aggregates three things per fingerprint:
///
///   * bounded (query, truth) pairs — the training examples a
///     ModelLifecycle drains and blends into its shadow retrains,
///   * a decayed mean log-q-error of the MODEL's served estimates vs the
///     observed truths,
///   * the same rolling error for the always-available FALLBACK estimator
///     (computed at record time — the executor just paid a full join, so
///     one independence estimate is noise),
///
/// and derives from the last two a DEACTIVATION LIST (AQO's
/// `deactivated_queries`): fingerprints whose model keeps losing to the
/// fallback are routed straight to the fallback by the EstimatorService
/// (ServiceConfig::feedback) and their pairs are excluded from retrains,
/// so a pathological query can neither be served badly forever nor poison
/// the training mix. While deactivated, each recorded truth also probes a
/// shadow copy of the model (kept current by the lifecycle after every
/// swap); once the probed q-error recovers under the reactivation
/// threshold, the next UpdateDeactivation routes the fingerprint back to
/// the model.
///
/// Threading: NoteEstimate and RecordTruth are the hot path — sub-sharded
/// try-locks, a contended or full store drops the sample and counts it,
/// never stalling a client or an executor. IsDeactivated is one relaxed
/// load when the list is empty (the common case) and a shared_ptr copy
/// under a short mutex + binary search otherwise. DrainTrainingPairs and
/// UpdateDeactivation take blocking locks and belong on the lifecycle
/// thread. FallbackEstimate serializes on an internal mutex (the
/// fallback estimator is not thread-safe); it only carries deactivated
/// traffic and record-time scoring.
class FeedbackCollector {
 public:
  /// `fallback` is borrowed and must outlive the collector — the
  /// always-available estimator deactivated fingerprints are served
  /// from and scored against (for AdaptiveLmkg deployments this is the
  /// independence combination of exact single-pattern statistics; see
  /// core::IndependenceEstimator).
  FeedbackCollector(core::CardinalityEstimator* fallback,
                    const FeedbackConfig& config);
  ~FeedbackCollector();

  FeedbackCollector(const FeedbackCollector&) = delete;
  FeedbackCollector& operator=(const FeedbackCollector&) = delete;

  /// Remembers the estimate just served for `fp` so the truth that
  /// follows execution can be scored against it. `from_fallback` marks
  /// estimates the service routed to the fallback (deactivated
  /// fingerprints) — they score the fallback's error, not the model's.
  /// Called by EstimatorService on every completion; try-lock, may drop.
  void NoteEstimate(const query::Fingerprint& fp, double estimate,
                    bool from_fallback);

  /// Feeds one executed query's true cardinality back. Scores the last
  /// noted estimate, appends a bounded training pair, and for
  /// deactivated fingerprints probes the shadow model to track
  /// recovery. Try-lock; a contended sub-shard or full store drops the
  /// record (counted), never blocks.
  void RecordTruth(const query::Query& q, double true_cardinality);

  /// Direct variant for callers that already hold both sides (tests,
  /// offline replay): one call = NoteEstimate + RecordTruth.
  void Record(const query::Query& q, double true_cardinality,
              double served_estimate, bool from_fallback = false);

  /// Whether the service should route `fp` straight to the fallback.
  /// Hot-path cheap: one relaxed load when nothing is deactivated.
  bool IsDeactivated(const query::Fingerprint& fp) const;

  /// The fallback estimate for `q`, serialized on the collector's
  /// fallback mutex. The serving path for deactivated fingerprints.
  /// Not reentrant (EXCLUDES: callers must not already hold the
  /// fallback mutex — the record path computes its fallback score via
  /// its own try-lock instead of calling back in here).
  double FallbackEstimate(const query::Query& q)
      LMKG_EXCLUDES(fallback_mu_);

  /// Re-derives the deactivation list from the rolling q-errors
  /// (hysteresis per FeedbackConfig) and publishes a fresh snapshot for
  /// IsDeactivated readers. Lifecycle-thread path; blocking locks.
  DeactivationReport UpdateDeactivation();

  /// Moves out the accumulated training pairs of every ACTIVE
  /// fingerprint as labeled queries (topology/size classified, ready to
  /// blend into a retrain). Deactivated fingerprints keep their pairs
  /// out of the mix — the model already demonstrably loses there, and
  /// feeding those truths back would let one pathological query poison
  /// every co-trained combo. Lifecycle-thread path.
  std::vector<sampling::LabeledQuery> DrainTrainingPairs();

  /// Installs the shadow model probed by RecordTruth for deactivated
  /// fingerprints (owned). The lifecycle hands a fresh replica here
  /// after every swap so recovery is measured against the model
  /// actually serving.
  void SetProbe(std::unique_ptr<core::CardinalityEstimator> probe);

  /// Whether a probe is installed (a lifecycle installs one on every
  /// swap).
  bool has_probe() const;

  FeedbackStatsSnapshot Stats() const;

 private:
  struct Entry {
    // Last served estimate, the score target for the next truth.
    double last_estimate = -1.0;  // < 0 = nothing noted yet
    bool last_from_fallback = false;
    // Decayed sums for the rolling geometric-mean q-error:
    // mean = exp(log_sum / weight). Weight decays with the same factor,
    // so stale observations fade identically from both.
    double model_log_sum = 0.0;
    double model_weight = 0.0;
    double fallback_log_sum = 0.0;
    double fallback_weight = 0.0;
    uint64_t truths = 0;
    bool deactivated = false;
    // Bounded training pairs, overwritten round-robin (newest win).
    std::vector<FeedbackPair> pairs;
    size_t pairs_next = 0;
  };

  struct SubShard {
    util::Mutex mu;
    std::unordered_map<query::Fingerprint, Entry,
                       query::FingerprintHasher>
        entries LMKG_GUARDED_BY(mu);
  };

  SubShard& SubShardFor(const query::Fingerprint& fp) {
    // ShardHash is independent of the hasher's bucket lane, so a
    // sub-shard's map still spreads over its buckets.
    return *sub_shards_[fp.ShardHash() % sub_shards_.size()];
  }

  // Finds or creates the entry (nullptr when at capacity and absent).
  Entry* FindOrCreate(SubShard& shard, const query::Fingerprint& fp)
      LMKG_REQUIRES(shard.mu);
  void PublishDeactivated(std::vector<query::Fingerprint> list);

  const FeedbackConfig config_;
  // The pointee is guarded (the fallback estimator's scratch is not
  // thread-safe); the pointer itself is set once in the constructor.
  core::CardinalityEstimator* fallback_ LMKG_PT_GUARDED_BY(fallback_mu_);
  std::vector<std::unique_ptr<SubShard>> sub_shards_;
  std::atomic<size_t> entry_count_{0};

  // Sorted snapshot of the deactivated fingerprints; swapped whole by
  // UpdateDeactivation. IsDeactivated copies the pointer under the mutex
  // and searches the immutable list outside it. The count short-circuits
  // the common nothing-deactivated case to one relaxed load, taking no
  // lock. A plain mutex rather than std::atomic<std::shared_ptr>: GCC
  // 12's libstdc++ releases that type's internal lock with a relaxed
  // store, which TSan reports as a race.
  std::atomic<size_t> deactivated_count_{0};
  mutable util::Mutex deactivated_mu_;
  std::shared_ptr<const std::vector<query::Fingerprint>> deactivated_
      LMKG_GUARDED_BY(deactivated_mu_);

  util::Mutex fallback_mu_;

  mutable util::Mutex probe_mu_;
  std::unique_ptr<core::CardinalityEstimator> probe_
      LMKG_GUARDED_BY(probe_mu_) LMKG_PT_GUARDED_BY(probe_mu_);

  // Wait-free counters (relaxed; Stats tolerates slight skew).
  std::atomic<uint64_t> estimates_noted_{0};
  std::atomic<uint64_t> truths_recorded_{0};
  std::atomic<uint64_t> unmatched_truths_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> pairs_drained_{0};
};

/// Adapter for query::Executor::SetTruthSink: every exact count the
/// executor finishes flows into `collector` as a truth. The collector is
/// borrowed and must outlive the executor the sink is installed on.
std::function<void(const query::Query&, uint64_t)> MakeExecutorTruthSink(
    FeedbackCollector* collector);

}  // namespace lmkg::serving

#endif  // LMKG_SERVING_FEEDBACK_COLLECTOR_H_
