#include "serving/model_lifecycle.h"

#include <iostream>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "store/replica_attach.h"
#include "util/check.h"
#include "util/status.h"

namespace lmkg::serving {

ModelLifecycle::ModelLifecycle(EstimatorService* service,
                               core::AdaptiveLmkg* shadow,
                               ReplicaFactory replica_factory,
                               const ModelLifecycleConfig& config)
    : service_(service),
      shadow_(shadow),
      replica_factory_(std::move(replica_factory)),
      config_(config) {
  LMKG_CHECK(service_ != nullptr);
  LMKG_CHECK(shadow_ != nullptr);
  LMKG_CHECK(replica_factory_ != nullptr);
  if (config_.background) thread_ = std::thread([this] { Loop(); });
}

ModelLifecycle::~ModelLifecycle() { Stop(); }

void ModelLifecycle::Stop() {
  {
    util::MutexLock lock(&mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  // Exactly one caller reaches join(): joining the same std::thread from
  // two threads at once is undefined behavior, and Stop() is documented
  // idempotent — the second caller blocks here until the first finishes
  // joining, then sees joinable() false and returns.
  util::MutexLock join_lock(&join_mu_);
  if (thread_.joinable()) thread_.join();
}

void ModelLifecycle::Loop() {
  util::MutexLock lock(&mu_);
  while (!stop_) {
    // Plain timed wait + manual re-check instead of the predicate
    // overload: the predicate reads mu_-guarded stop_, which a lambda
    // body would hide from the thread-safety analysis. A spurious early
    // return just runs one cycle ahead of schedule — harmless, RunOnce
    // on a quiet tap is gated by min_samples_per_cycle.
    (void)cv_.WaitFor(mu_, config_.poll_interval);
    if (stop_) break;
    lock.Unlock();
    (void)RunOnce();
    lock.Lock();
  }
}

LifecycleReport ModelLifecycle::RunOnce() {
  util::MutexLock cycle_lock(&cycle_mu_);
  LifecycleReport report;
  cycles_.fetch_add(1, std::memory_order_relaxed);

  // 1. Mirror the live stream into the shadow's drift detector, and
  // drain the feedback loop's executed-query truths into the shadow's
  // pending training pairs.
  std::vector<query::Query> samples = service_->DrainWorkloadSamples();
  report.samples_observed = samples.size();
  for (const query::Query& q : samples) shadow_->ObserveWorkload(q);
  if (config_.feedback != nullptr) {
    std::vector<sampling::LabeledQuery> pairs =
        config_.feedback->DrainTrainingPairs();
    report.feedback_pairs = pairs.size();
    if (!pairs.empty()) shadow_->IngestFeedback(std::move(pairs));
  }
  if (samples.size() < config_.min_samples_per_cycle &&
      report.feedback_pairs == 0) {
    report.epoch = service_->epoch();
    return report;
  }

  // 2. Reconcile the shadow's model pool with the observed mix and the
  // fed-back truths. This is where training happens — on this thread,
  // against a model no serving worker can reach.
  report.adapt = shadow_->Adapt();
  const bool pool_changed =
      !report.adapt.created.empty() || !report.adapt.dropped.empty();
  if (pool_changed || !report.adapt.updated.empty()) {
    // 3. Ship the new generation: rehydrate one replica per slot from a
    // full snapshot, swap each in, then advance the epoch once (the
    // stale-cache-safety contract; see EstimatorService). Whether models
    // were created, dropped or only retrained, the push is the same.
    SwapAllReplicas();
    report.swapped = true;
    report.incremental = !pool_changed;
    swaps_.fetch_add(1, std::memory_order_relaxed);
    if (report.incremental)
      incremental_swaps_.fetch_add(1, std::memory_order_relaxed);
  }

  // 4. Persist the swap: whatever just went live also lands in the
  // durable store, so the next cold start mmaps today's weights instead
  // of retraining (or serving yesterday's).
  if (report.swapped && config_.store != nullptr)
    report.persisted = PersistSwap(report.adapt, report.incremental);

  // 5. Refresh the deactivation list from the rolling q-errors — every
  // cycle, swap or not: deactivation is driven by accumulated truths,
  // not by model changes, and the flip routes around the cache so it
  // needs no epoch bump of its own.
  if (config_.feedback != nullptr)
    report.deactivation = config_.feedback->UpdateDeactivation();

  report.epoch = service_->epoch();
  return report;
}

void ModelLifecycle::SwapAllReplicas() {
  std::ostringstream blob;
  const util::Status status = shadow_->Save(blob);
  LMKG_CHECK(status.ok()) << "lifecycle snapshot failed: "
                          << status.message();
  const std::string snapshot = blob.str();
  for (size_t i = 0; i < service_->num_replicas(); ++i) {
    std::unique_ptr<core::CardinalityEstimator> replica =
        replica_factory_(snapshot);
    LMKG_CHECK(replica != nullptr)
        << "lifecycle replica factory returned null";
    // The retired model is destroyed here, after the slot's mutex was
    // released — no worker can still be inside it.
    service_->ReplaceReplica(i, std::move(replica));
  }
  service_->AdvanceEpoch();
  // The collector's recovery probe must track what actually serves, or
  // reactivation would be judged against stale weights.
  if (config_.feedback != nullptr)
    config_.feedback->SetProbe(replica_factory_(snapshot));
}

bool ModelLifecycle::PersistSwap(
    const core::AdaptiveLmkg::AdaptReport& adapt, bool incremental) {
  store::ModelStore* store = config_.store;
  const std::string& tenant = config_.store_tenant;
  const auto log_fail = [](const util::Status& status) {
    // Persistence is best-effort relative to serving: the in-memory
    // swap already happened and must stand. The next swap rewrites the
    // full set, so a transient disk error heals itself.
    std::cerr << "[lifecycle] store persist failed: " << status.message()
              << "\n";
    return false;
  };
  if (incremental) {
    for (const core::AdaptiveLmkg::Combo& combo : adapt.updated) {
      const util::Status status = store::WriteModelSegment(
          store, tenant, combo, shadow_->FindModel(combo));
      if (!status.ok()) return log_fail(status);
    }
  } else {
    // Full swap: reconcile the tenant's segment set against the
    // shadow's registry — write every current model, remove segments
    // whose combo no longer exists (dropped this cycle or orphaned by
    // an earlier failed persist).
    std::set<store::ComboKey> current;
    for (const core::AdaptiveLmkg::Combo& combo :
         shadow_->ModelCombos()) {
      current.insert(store::ToComboKey(combo));
      core::LmkgS* model = shadow_->FindModel(combo);
      // A pending mapped combo has no hydrated weights to write — and
      // is by definition already store-backed.
      if (model == nullptr) continue;
      const util::Status status =
          store::WriteModelSegment(store, tenant, combo, model);
      if (!status.ok()) return log_fail(status);
    }
    for (const store::SegmentInfo& info : store->TenantSegments(tenant))
      if (current.count(info.combo) == 0) {
        const util::Status status =
            store->RemoveSegment(tenant, info.combo);
        if (!status.ok()) return log_fail(status);
      }
  }
  const util::Status status = store->Commit();
  if (!status.ok()) return log_fail(status);
  return true;
}

ModelLifecycle::ReplicaFactory MakeAdaptiveReplicaFactory(
    const rdf::Graph& graph, const core::AdaptiveLmkgConfig& config) {
  core::AdaptiveLmkgConfig replica_config = config;
  replica_config.initial_combos.clear();  // the snapshot carries the models
  return [&graph, replica_config](const std::string& snapshot)
             -> std::unique_ptr<core::CardinalityEstimator> {
    auto replica =
        std::make_unique<core::AdaptiveLmkg>(graph, replica_config);
    std::istringstream in(snapshot);
    const util::Status status = replica->Load(in);
    LMKG_CHECK(status.ok())
        << "replica rehydration failed: " << status.message();
    return replica;
  };
}

}  // namespace lmkg::serving
