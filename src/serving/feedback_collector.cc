#include "serving/feedback_collector.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/math.h"

namespace lmkg::serving {
namespace {

// Strict weak order for the sorted deactivation snapshot (Fingerprint
// itself only defines equality — hash consumers never need an order).
bool FingerprintLess(const query::Fingerprint& a,
                     const query::Fingerprint& b) {
  return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
}

// Rolling geometric mean of the decayed log-q-error sums; +inf weight
// guard keeps a never-observed side out of every comparison.
double DecayedMean(double log_sum, double weight) {
  if (weight <= 1e-9) return -1.0;  // no observations yet
  return std::exp(log_sum / weight);
}

}  // namespace

FeedbackCollector::FeedbackCollector(core::CardinalityEstimator* fallback,
                                     const FeedbackConfig& config)
    : config_(config), fallback_(fallback) {
  LMKG_CHECK(fallback_ != nullptr);
  LMKG_CHECK_GT(config_.capacity, 0u);
  LMKG_CHECK_GT(config_.max_pairs_per_entry, 0u);
  LMKG_CHECK_GT(config_.qerror_decay, 0.0);
  LMKG_CHECK(config_.qerror_decay <= 1.0);
  LMKG_CHECK(config_.reactivate_ratio <= config_.deactivate_ratio)
      << "hysteresis inverted: reactivate_ratio must not exceed "
         "deactivate_ratio";
  size_t shards = std::max<size_t>(1, config_.sub_shards);
  sub_shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i)
    sub_shards_.push_back(std::make_unique<SubShard>());
}

FeedbackCollector::~FeedbackCollector() = default;

FeedbackCollector::Entry* FeedbackCollector::FindOrCreate(
    SubShard& shard, const query::Fingerprint& fp) {
  if (auto it = shard.entries.find(fp); it != shard.entries.end())
    return &it->second;
  // entry_count_ is advisory across sub-shards: two concurrent inserts
  // may both pass the check and land at capacity+1, which is fine — the
  // bound is a budget, not an invariant other code relies on.
  if (entry_count_.load(std::memory_order_relaxed) >= config_.capacity)
    return nullptr;
  entry_count_.fetch_add(1, std::memory_order_relaxed);
  Entry& entry = shard.entries[fp];
  entry.pairs.reserve(config_.max_pairs_per_entry);
  return &entry;
}

void FeedbackCollector::NoteEstimate(const query::Fingerprint& fp,
                                     double estimate, bool from_fallback) {
  SubShard& shard = SubShardFor(fp);
  if (!shard.mu.TryLock()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  util::MutexLock lock(&shard.mu, util::kAdoptLock);
  Entry* entry = FindOrCreate(shard, fp);
  if (entry == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  entry->last_estimate = std::max(estimate, 0.0);
  entry->last_from_fallback = from_fallback;
  estimates_noted_.fetch_add(1, std::memory_order_relaxed);
}

void FeedbackCollector::RecordTruth(const query::Query& q,
                                    double true_cardinality) {
  truths_recorded_.fetch_add(1, std::memory_order_relaxed);
  thread_local query::FingerprintScratch scratch;
  const query::Fingerprint fp = query::ComputeFingerprint(q, &scratch);
  const bool deactivated = IsDeactivated(fp);

  // Estimator calls happen BEFORE taking the sub-shard lock so the
  // record path never holds two locks at once. The fallback estimate is
  // computed on every truth — the caller just paid a full join
  // execution, one independence product is noise — so the fallback's
  // rolling error stays current even while the model serves. Contended
  // try-locks skip the scoring, not the record.
  double fallback_estimate = -1.0;
  if (fallback_mu_.TryLock()) {
    util::MutexLock lock(&fallback_mu_, util::kAdoptLock);
    fallback_estimate = fallback_->EstimateCardinality(q);
  }
  double probe_estimate = -1.0;
  if (deactivated && probe_mu_.TryLock()) {
    util::MutexLock lock(&probe_mu_, util::kAdoptLock);
    if (probe_ != nullptr && probe_->CanEstimate(q)) {
      probe_estimate = probe_->EstimateCardinality(q);
      probes_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  SubShard& shard = SubShardFor(fp);
  if (!shard.mu.TryLock()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  util::MutexLock lock(&shard.mu, util::kAdoptLock);
  Entry* entry = FindOrCreate(shard, fp);
  if (entry == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ++entry->truths;

  const double decay = config_.qerror_decay;
  // Model side: while active, score the estimate the service actually
  // served; while deactivated the model is off the serving path, so the
  // shadow probe's estimate stands in — that is what lets a recovered
  // model earn its way back.
  double model_estimate = -1.0;
  if (deactivated) {
    model_estimate = probe_estimate;
  } else if (entry->last_estimate >= 0.0 && !entry->last_from_fallback) {
    model_estimate = entry->last_estimate;
  }
  if (model_estimate >= 0.0) {
    double log_q = std::log(util::QError(model_estimate, true_cardinality));
    entry->model_log_sum = decay * entry->model_log_sum + log_q;
    entry->model_weight = decay * entry->model_weight + 1.0;
  } else {
    unmatched_truths_.fetch_add(1, std::memory_order_relaxed);
  }
  if (fallback_estimate >= 0.0) {
    double log_q =
        std::log(util::QError(fallback_estimate, true_cardinality));
    entry->fallback_log_sum = decay * entry->fallback_log_sum + log_q;
    entry->fallback_weight = decay * entry->fallback_weight + 1.0;
  }

  // Bounded training pairs: grow to the cap, then overwrite round-robin
  // so the NEWEST executions survive a full buffer.
  if (entry->pairs.size() < config_.max_pairs_per_entry) {
    entry->pairs.push_back(FeedbackPair{q, true_cardinality});
  } else {
    entry->pairs[entry->pairs_next] = FeedbackPair{q, true_cardinality};
    entry->pairs_next =
        (entry->pairs_next + 1) % config_.max_pairs_per_entry;
  }
}

void FeedbackCollector::Record(const query::Query& q,
                               double true_cardinality,
                               double served_estimate, bool from_fallback) {
  thread_local query::FingerprintScratch scratch;
  const query::Fingerprint fp = query::ComputeFingerprint(q, &scratch);
  NoteEstimate(fp, served_estimate, from_fallback);
  RecordTruth(q, true_cardinality);
}

bool FeedbackCollector::IsDeactivated(const query::Fingerprint& fp) const {
  if (deactivated_count_.load(std::memory_order_relaxed) == 0) return false;
  std::shared_ptr<const std::vector<query::Fingerprint>> snapshot;
  {
    util::MutexLock lock(&deactivated_mu_);
    snapshot = deactivated_;
  }
  if (snapshot == nullptr) return false;
  return std::binary_search(snapshot->begin(), snapshot->end(), fp,
                            FingerprintLess);
}

double FeedbackCollector::FallbackEstimate(const query::Query& q) {
  util::MutexLock lock(&fallback_mu_);
  return fallback_->EstimateCardinality(q);
}

void FeedbackCollector::PublishDeactivated(
    std::vector<query::Fingerprint> list) {
  std::sort(list.begin(), list.end(), FingerprintLess);
  auto snapshot = std::make_shared<const std::vector<query::Fingerprint>>(
      std::move(list));
  const size_t count = snapshot->size();
  // Publish the list before the count; a reader racing the publish finds
  // the old list or the new one, both consistent answers. The swap frees
  // the old list outside the lock.
  {
    util::MutexLock lock(&deactivated_mu_);
    deactivated_.swap(snapshot);
  }
  deactivated_count_.store(count, std::memory_order_release);
}

DeactivationReport FeedbackCollector::UpdateDeactivation() {
  DeactivationReport report;
  std::vector<query::Fingerprint> deactivated;
  for (auto& shard : sub_shards_) {
    util::MutexLock lock(&shard->mu);
    for (auto& [fp, entry] : shard->entries) {
      const double model = DecayedMean(entry.model_log_sum,
                                       entry.model_weight);
      const double fallback = DecayedMean(entry.fallback_log_sum,
                                          entry.fallback_weight);
      if (!entry.deactivated) {
        // Deactivate only on enough evidence AND a clear loss — both
        // sides observed, and the model's rolling q-error beyond the
        // hysteresis band above the fallback's.
        if (entry.truths >= config_.min_observations && model > 0.0 &&
            fallback > 0.0 && model > config_.deactivate_ratio * fallback) {
          entry.deactivated = true;
          ++report.deactivated;
        }
      } else {
        // Reactivate once the PROBED model (the only model signal while
        // deactivated) has recent observations back under the band.
        if (model > 0.0 && fallback > 0.0 && entry.model_weight > 0.5 &&
            model <= config_.reactivate_ratio * fallback) {
          entry.deactivated = false;
          ++report.reactivated;
        }
      }
      if (entry.deactivated) deactivated.push_back(fp);
    }
  }
  report.total_deactivated = deactivated.size();
  PublishDeactivated(std::move(deactivated));
  return report;
}

std::vector<sampling::LabeledQuery> FeedbackCollector::DrainTrainingPairs() {
  std::vector<sampling::LabeledQuery> out;
  query::ChainScratch chain_scratch;
  for (auto& shard : sub_shards_) {
    util::MutexLock lock(&shard->mu);
    for (auto& [fp, entry] : shard->entries) {
      if (entry.deactivated || entry.pairs.empty()) continue;
      for (FeedbackPair& pair : entry.pairs) {
        sampling::LabeledQuery labeled;
        labeled.query = std::move(pair.query);
        labeled.cardinality = pair.true_cardinality;
        labeled.topology =
            query::ClassifyTopology(labeled.query, &chain_scratch);
        labeled.size = static_cast<int>(labeled.query.size());
        out.push_back(std::move(labeled));
      }
      entry.pairs.clear();
      entry.pairs_next = 0;
    }
  }
  pairs_drained_.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

void FeedbackCollector::SetProbe(
    std::unique_ptr<core::CardinalityEstimator> probe) {
  util::MutexLock lock(&probe_mu_);
  probe_ = std::move(probe);
}

bool FeedbackCollector::has_probe() const {
  util::MutexLock lock(&probe_mu_);
  return probe_ != nullptr;
}

FeedbackStatsSnapshot FeedbackCollector::Stats() const {
  FeedbackStatsSnapshot snapshot;
  snapshot.estimates_noted =
      estimates_noted_.load(std::memory_order_relaxed);
  snapshot.truths_recorded =
      truths_recorded_.load(std::memory_order_relaxed);
  snapshot.unmatched_truths =
      unmatched_truths_.load(std::memory_order_relaxed);
  snapshot.dropped = dropped_.load(std::memory_order_relaxed);
  snapshot.probes = probes_.load(std::memory_order_relaxed);
  snapshot.pairs_drained = pairs_drained_.load(std::memory_order_relaxed);
  snapshot.entries = entry_count_.load(std::memory_order_relaxed);
  snapshot.deactivated =
      deactivated_count_.load(std::memory_order_relaxed);
  return snapshot;
}

std::function<void(const query::Query&, uint64_t)> MakeExecutorTruthSink(
    FeedbackCollector* collector) {
  LMKG_CHECK(collector != nullptr);
  return [collector](const query::Query& q, uint64_t true_cardinality) {
    collector->RecordTruth(q, static_cast<double>(true_cardinality));
  };
}

}  // namespace lmkg::serving
