#ifndef LMKG_SERVING_MODEL_LIFECYCLE_H_
#define LMKG_SERVING_MODEL_LIFECYCLE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "core/adaptive.h"
#include "serving/estimator_service.h"
#include "serving/feedback_collector.h"
#include "store/model_store.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lmkg::serving {

struct ModelLifecycleConfig {
  /// Pause between background cycles (the thread also wakes promptly on
  /// Stop).
  std::chrono::milliseconds poll_interval{200};
  /// A cycle that drained fewer samples than this skips Adapt() — never
  /// retrain on silence. The drained samples still reach the shadow's
  /// monitor, so nothing is lost across skipped cycles. Drained FEEDBACK
  /// pairs lift the gate too: executed truths are a stronger retrain
  /// signal than tap samples, so a cycle with feedback always reaches
  /// Adapt() (which applies its own per-combo minimum).
  size_t min_samples_per_cycle = 16;
  /// false: no background thread — the owner drives RunOnce() manually
  /// (tests, benches, external schedulers).
  bool background = true;
  /// Durable model store to persist swaps into (borrowed; must outlive
  /// the lifecycle; nullptr disables persistence). After every swap the
  /// changed combos are written as segments under `store_tenant` and
  /// committed in one manifest bump — a weights-only (incremental) swap
  /// writes just the retrained combos' segments, any other swap rewrites
  /// the tenant's whole set (and removes segments for dropped combos).
  /// A crashed process then cold-starts by mmapping the store instead
  /// of retraining.
  store::ModelStore* store = nullptr;
  std::string store_tenant = "default";
  /// Executor-feedback loop (borrowed; must outlive the lifecycle;
  /// nullptr runs the PR-5 tap-only cycle). When set, each cycle drains
  /// the collector's training pairs into the shadow, refreshes the
  /// collector's deactivation list, and keeps the collector's probe
  /// model current with whatever the serving replicas run.
  FeedbackCollector* feedback = nullptr;
};

/// What one lifecycle cycle did.
struct LifecycleReport {
  /// Queries drained from the service's workload tap this cycle.
  size_t samples_observed = 0;
  /// Executed-query truths drained from the feedback collector.
  size_t feedback_pairs = 0;
  /// Models the shadow created/dropped/feedback-retrained (empty when
  /// Adapt was skipped or found nothing to do).
  core::AdaptiveLmkg::AdaptReport adapt;
  /// Whether the serving replicas changed (implies the cache epoch
  /// advanced).
  bool swapped = false;
  /// True when only feedback-retrained weights changed (no model was
  /// created or dropped), so the store persist wrote just those combos'
  /// segments. The replicas are swapped from a full snapshot either way.
  bool incremental = false;
  /// Deactivation-list changes this cycle (zeroes without a collector).
  DeactivationReport deactivation;
  /// True when a swap's changes reached the configured model store
  /// (always false without a store or a swap). A failed persist never
  /// blocks serving — the swap stands, the error goes to stderr, and
  /// the next swap retries the whole set.
  bool persisted = false;
  /// Service epoch after the cycle.
  uint64_t epoch = 0;
};

/// Closes the paper's §IV loop under live traffic: "if a change in the
/// workload of queries is detected during the execution phase, a new
/// model may be created, or an existing model may be dropped" — here
/// detected FROM the serving stream and applied TO the serving replicas
/// without ever blocking a worker on training.
///
/// Each cycle: (1) drain the EstimatorService workload tap and mirror the
/// sampled queries into the shadow AdaptiveLmkg's WorkloadMonitor;
/// (2) run Adapt() on the shadow — all training happens on the lifecycle
/// thread, on a model no worker touches; (3) if any model was created,
/// dropped or feedback-retrained, snapshot the shadow
/// (AdaptiveLmkg::Save), rehydrate one fresh replica per serving slot
/// through the caller's ReplicaFactory, swap each in under its replica
/// mutex, advance the service epoch — which atomically turns every
/// result cached against the old generation into a miss — and hand the
/// feedback collector a probe rehydrated from the same snapshot;
/// (4) persist the changed combos into the configured store; (5) refresh
/// the collector's deactivation list. Workers at most wait out a pointer
/// swap; requests keep flowing on the old generation until the instant
/// theirs is replaced. The snapshot is the one push path: every replica
/// and the probe hold exactly the shadow's weights after any swap.
///
/// Threading: the shadow is the lifecycle's alone — the owner must not
/// call into it while the lifecycle runs (Stop() first). RunOnce is
/// serialized internally, so driving it manually while the background
/// thread polls is safe, if unusual.
class ModelLifecycle {
 public:
  /// Rehydrates one serving replica from an AdaptiveLmkg snapshot blob.
  /// Typical shape: construct an AdaptiveLmkg over the same graph/config
  /// with `initial_combos` cleared (skip throwaway training), Load the
  /// blob, return it.
  using ReplicaFactory =
      std::function<std::unique_ptr<core::CardinalityEstimator>(
          const std::string& snapshot)>;

  /// `service` and `shadow` are borrowed and must outlive this object.
  /// The service should be constructed with a nonzero
  /// workload_tap_capacity, or every cycle will drain zero samples.
  ModelLifecycle(EstimatorService* service, core::AdaptiveLmkg* shadow,
                 ReplicaFactory replica_factory,
                 const ModelLifecycleConfig& config);
  ~ModelLifecycle();

  ModelLifecycle(const ModelLifecycle&) = delete;
  ModelLifecycle& operator=(const ModelLifecycle&) = delete;

  /// Stops the background thread (if any) and joins it. Idempotent and
  /// safe to call from several threads at once — the join itself is
  /// serialized internally (std::thread::join from two threads
  /// concurrently is undefined behavior).
  void Stop() LMKG_EXCLUDES(mu_, join_mu_);

  /// One synchronous lifecycle cycle; see the class comment for the
  /// steps. Returns what happened. Thread-safe against the background
  /// loop.
  LifecycleReport RunOnce();

  uint64_t cycles() const {
    return cycles_.load(std::memory_order_relaxed);
  }
  uint64_t swaps() const { return swaps_.load(std::memory_order_relaxed); }
  /// Swaps where only feedback-retrained weights changed (subset of
  /// swaps(); see LifecycleReport::incremental).
  uint64_t incremental_swaps() const {
    return incremental_swaps_.load(std::memory_order_relaxed);
  }

 private:
  void Loop();
  // Snapshot the shadow once, rehydrate + replace every replica, advance
  // the epoch, and install a probe from the same snapshot.
  void SwapAllReplicas();
  // Writes this cycle's model changes into config_.store and commits.
  // `incremental` ships only the adapt report's updated combos; a full
  // persist reconciles the tenant's whole segment set against the
  // shadow's registry (new/updated combos written, dropped ones
  // removed). Returns success; failures are logged, never fatal.
  bool PersistSwap(const core::AdaptiveLmkg::AdaptReport& adapt,
                   bool incremental);

  EstimatorService* service_;
  core::AdaptiveLmkg* shadow_;
  ReplicaFactory replica_factory_;
  const ModelLifecycleConfig config_;

  std::atomic<uint64_t> cycles_{0};
  std::atomic<uint64_t> swaps_{0};
  std::atomic<uint64_t> incremental_swaps_{0};

  util::Mutex cycle_mu_;  // serializes RunOnce bodies

  util::Mutex mu_;
  util::CondVar cv_;  // Loop's poll timer; Stop pokes it for prompt exit
  bool stop_ LMKG_GUARDED_BY(mu_) = false;
  // The join is serialized on its own mutex (never nested with mu_) so
  // two concurrent Stop() calls cannot both reach thread_.join(); the
  // loser finds the thread already joined and returns.
  util::Mutex join_mu_;
  std::thread thread_ LMKG_GUARDED_BY(join_mu_);
};

/// The canonical ReplicaFactory for AdaptiveLmkg deployments: rehydrates
/// each replica over `graph` with `config` (initial_combos cleared — the
/// snapshot carries the real models) and CHECK-fails on a Load error,
/// since a lifecycle swap has no recovery path for a corrupt
/// self-produced snapshot. `graph` is captured by reference and must
/// outlive the factory and every replica it produces.
ModelLifecycle::ReplicaFactory MakeAdaptiveReplicaFactory(
    const rdf::Graph& graph, const core::AdaptiveLmkgConfig& config);

}  // namespace lmkg::serving

#endif  // LMKG_SERVING_MODEL_LIFECYCLE_H_
