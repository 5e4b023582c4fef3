#ifndef LMKG_CORE_ADAPTIVE_H_
#define LMKG_CORE_ADAPTIVE_H_

#include <algorithm>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/lmkg_s.h"
#include "core/single_pattern.h"
#include "core/workload_monitor.h"
#include "encoding/term_encoder.h"
#include "rdf/graph.h"
#include "sampling/blend.h"
#include "sampling/workload.h"
#include "util/status.h"

namespace lmkg::core {

struct AdaptiveLmkgConfig {
  LmkgSConfig s_config;
  encoding::TermEncoding term_encoding = encoding::TermEncoding::kBinary;
  /// Supervised training queries generated per specialized model.
  size_t train_queries = 300;
  /// Base options for the generated training workloads (topology/size/
  /// seed are overridden per model).
  sampling::WorkloadGenerator::Options workload_options;
  WorkloadMonitor::Options monitor;
  /// Total model-byte budget enforced by Adapt(); 0 = unlimited. When the
  /// budget is exceeded, cold models (decayed share < monitor.cold_share)
  /// are dropped coldest-first.
  size_t memory_budget_bytes = 0;
  /// Combos served from construction (trained immediately).
  std::vector<WorkloadMonitor::Combo> initial_combos = {
      {query::Topology::kStar, 2}, {query::Topology::kChain, 2}};
  uint64_t seed = 1;
  bool verbose = false;
  /// Executor-feedback retraining (see IngestFeedback/Adapt): a combo
  /// with at least this many pending fed-back pairs is incrementally
  /// retrained on the next Adapt(); fewer stay pending.
  size_t feedback_min_pairs = 8;
  /// Synthetic refresh queries blended into each feedback retrain so an
  /// incremental step on a handful of live fingerprints cannot
  /// catastrophically forget the rest of the combo's distribution.
  size_t feedback_refresh_queries = 100;
  /// Pending fed-back pairs retained per combo (newest win).
  size_t feedback_pending_cap = 4096;
  /// How feedback and synthetic pairs mix (sampling::BlendTrainingSets).
  sampling::BlendOptions feedback_blend;
};

/// The model-lifecycle manager the paper sketches for the execution phase
/// (§IV: "If a change in the workload of queries is detected during the
/// execution phase, a new model may be created, or an existing model may
/// be dropped."). Serves queries from a pool of specialized LMKG-S
/// models keyed by (topology, size); every estimate feeds the
/// WorkloadMonitor, and Adapt() reconciles the model pool with the
/// observed mix:
///
///   * hot combos without a model get one trained on freshly generated
///     workloads (star/chain use pattern-bound encoders; composite sizes
///     use SG-Encoding over tree workloads),
///   * when a memory budget is set and exceeded, cold models are dropped.
///
/// Queries with no matching model fall back to the independence
/// combination of exact single-pattern statistics — the always-available
/// estimate a plain RDF engine would use.
///
/// Threading: NOT thread-safe — estimate, Adapt, and Load/Save all touch
/// the model registry and reused encode scratch without internal locks
/// (deliberately: serving synchronizes on the owning shard's replica
/// mutex, and a second internal lock would buy nothing but overhead).
/// The serving deployment keeps one instance per shard behind
/// EstimatorService's replica_mu, one shadow instance private to the
/// ModelLifecycle thread, and one probe instance behind
/// FeedbackCollector's probe mutex; none is ever shared.
class AdaptiveLmkg : public CardinalityEstimator {
 public:
  using Combo = WorkloadMonitor::Combo;

  AdaptiveLmkg(const rdf::Graph& graph, const AdaptiveLmkgConfig& config);

  double EstimateCardinality(const query::Query& q) override;
  /// Observes every query in the monitor, then dispatches in grouped
  /// waves exactly like core::Lmkg: size-1 to the exact estimator,
  /// model-served queries per specialized model (one batched forward
  /// each), the rest to the independence fallback. The model pool only
  /// changes in Adapt(), so grouping cannot change which model serves a
  /// query.
  void EstimateCardinalityBatch(std::span<const query::Query> queries,
                                std::span<double> out) override;
  bool CanEstimate(const query::Query& q) const override;
  std::string name() const override { return "LMKG-adaptive"; }
  size_t MemoryBytes() const override;

  struct AdaptReport {
    std::vector<Combo> created;
    std::vector<Combo> dropped;
    /// Combos whose existing model was incrementally retrained on
    /// blended executor feedback — the segments a lifecycle persists
    /// when nothing was created or dropped.
    std::vector<Combo> updated;
  };

  /// Runs the lifecycle policy once. Call periodically (e.g. every N
  /// queries); training hot models is the expensive part. Besides the
  /// paper's create-hot/drop-cold reconciliation, combos holding at
  /// least `feedback_min_pairs` ingested executor truths are retrained
  /// IN PLACE: the pending pairs are blended with a fresh synthetic
  /// refresh workload (sampling::BlendTrainingSets) and the combo's
  /// model continues training from its current weights.
  AdaptReport Adapt();

  /// Queues executed-query truths (from a FeedbackCollector drain) as
  /// pending training pairs, grouped by combo. Size-1 pairs are ignored
  /// (answered exactly); pairs for combos that cannot have a model
  /// (2-pattern composites) are dropped at Adapt() time. Per-combo
  /// buffers are bounded by `feedback_pending_cap` (oldest evicted).
  void IngestFeedback(std::vector<sampling::LabeledQuery> pairs);

  /// Pending fed-back pairs not yet consumed by Adapt(), summed over
  /// combos.
  size_t pending_feedback_pairs() const;

  /// Feeds one query into the workload monitor WITHOUT estimating it —
  /// how a background lifecycle mirrors live serving traffic into a
  /// shadow replica's drift detector (the serving path already observes
  /// its own estimates; the shadow never sees those calls).
  void ObserveWorkload(const query::Query& q) { monitor_.Observe(q); }

  /// Versioned snapshot of the whole replica state: a config header
  /// (validated on Load), the workload monitor's decayed counts, and the
  /// per-combo model registry — each model's label scaler + parameters
  /// via the nn::SaveParams format. Load into an AdaptiveLmkg built over
  /// the same graph with the same config reproduces estimates
  /// bit-identically and resumes drift detection where the donor left
  /// off; models present before Load are discarded. Construct the target
  /// with `initial_combos` cleared to skip training throwaway models
  /// (the snapshot carries the real ones).
  util::Status Save(std::ostream& out);
  util::Status Load(std::istream& in);

  /// Weight views + label scaler a mapped-model provider hands back at
  /// hydration time. The views point into storage the provider's owner
  /// keeps alive (an mmapped store segment) — AdaptiveLmkg never copies
  /// them; the hydrated model borrows them directly.
  struct MappedWeights {
    std::vector<nn::ConstMatrixView> tensors;
    double log_min = 0.0;
    double log_max = 0.0;
  };

  /// A tenant-scoped source of store-backed models: ONE object serves
  /// every combo the registry holds, so attaching a registry of N
  /// models costs O(1) allocations instead of a pair of heap-allocated
  /// std::functions per combo — the invariant that keeps cold start
  /// independent of registry size (bench_store gates it).
  class MappedSource {
   public:
    virtual ~MappedSource() = default;
    /// Maps the combo's segment (typically through a store::StoreCache)
    /// and returns its weight views; nullopt on failure. Called once
    /// per combo, at hydration. The views must stay valid for the
    /// replica's lifetime — i.e. the mapping's owner must outlive the
    /// replica.
    virtual std::optional<MappedWeights> Hydrate(const Combo& combo) = 0;
    /// Per-serve hook (the cache's LRU touch) invoked every time a
    /// model hydrated from this source serves an estimate.
    virtual void Touch(const Combo& combo) = 0;
  };

  /// Registers `combos` for LAZY hydration through `source`: nothing is
  /// mapped or built until the first query a combo would serve arrives.
  /// Pending combos count as covered (Covers/num_models) and
  /// participate in model selection exactly as if hydrated — fallback
  /// scans consult a cheap probe encoder, and the model itself
  /// (serve-only LmkgS borrowing the mapped weights) is built on first
  /// use. A combo that fails to hydrate is dropped and its queries fall
  /// back to the independence estimate. Combos already holding a
  /// trained model are skipped. At most one source per replica.
  void AttachMappedSource(std::shared_ptr<MappedSource> source,
                          std::vector<Combo> combos);

  /// Forces hydration of every pending mapped combo (cold-start benches
  /// measuring eager attach; Save, whose snapshot must carry all
  /// models). Fails on the first segment that cannot be hydrated.
  util::Status HydrateAllMapped();

  /// The combo's hydrated model, nullptr if absent or still pending —
  /// how a lifecycle reads trained weights out of its shadow for store
  /// persistence.
  LmkgS* FindModel(const Combo& combo);

  /// Every served combo: hydrated models first, then pending mapped
  /// ones, each set combo-ordered.
  std::vector<Combo> ModelCombos() const;

  bool Covers(const Combo& combo) const {
    return models_.count(combo) > 0 ||
           std::binary_search(mapped_pending_.begin(),
                              mapped_pending_.end(), combo);
  }
  size_t num_models() const {
    return models_.size() + mapped_pending_.size();
  }
  const WorkloadMonitor& monitor() const { return monitor_; }

 private:
  std::unique_ptr<encoding::QueryEncoder> MakeComboEncoder(
      const Combo& combo) const;
  std::unique_ptr<LmkgS> TrainSpecialized(const Combo& combo);
  /// Fresh labeled workload for a combo (star/chain via the paper's
  /// generator, composite via tree workloads) — shared by initial
  /// training and feedback-retrain refresh sets.
  std::vector<sampling::LabeledQuery> GenerateComboWorkload(
      const Combo& combo, size_t count, uint64_t seed) const;
  // The model serving q: its exact (topology, size) combo if trained,
  // otherwise any model whose encoder fits (e.g. a larger SG model);
  // nullptr means the independence fallback. Shared by the per-query and
  // batched paths so their dispatch can never drift apart. Pending
  // mapped combos are probed in the same combo order a fully-hydrated
  // registry would scan, so lazy hydration can never change WHICH model
  // serves a query — only when it gets built.
  LmkgS* SelectModel(const query::Query& q);
  double IndependenceFallback(const query::Query& q) const;

  // Whether the pending combo's model could estimate q, answered by a
  // lazily-built probe encoder (CanEstimate on a hydrated LmkgS is
  // exactly CanEncode) — so fallback scans never hydrate blindly.
  bool PendingCanEstimate(const Combo& combo, const query::Query& q);
  // Moves a pending combo into models_ (source Hydrate -> CreateMapped
  // -> AttachWeights -> WarmUp). Success or failure, the combo leaves
  // the pending set; on failure its queries fall back and nullptr
  // returns.
  LmkgS* HydrateMapped(const Combo& combo);
  void TouchMapped(const Combo& combo);

  const rdf::Graph& graph_;
  AdaptiveLmkgConfig config_;
  WorkloadMonitor monitor_;
  std::map<Combo, std::unique_ptr<LmkgS>> models_;
  // The attached registry (AttachMappedSource): combos awaiting first
  // use (sorted), their lazily-built probe encoders, and the combos in
  // models_ whose serves LRU-touch through the source.
  std::shared_ptr<MappedSource> mapped_source_;
  std::vector<Combo> mapped_pending_;
  std::map<Combo, std::unique_ptr<encoding::QueryEncoder>> mapped_probes_;
  std::set<Combo> mapped_hydrated_;
  mutable SinglePatternEstimator single_pattern_;
  size_t models_created_ = 0;  // seeds successive trainings differently
  // Ingested executor truths awaiting the next Adapt(), per combo.
  std::map<Combo, std::vector<sampling::LabeledQuery>> pending_feedback_;
  size_t feedback_retrains_ = 0;  // seeds successive refresh workloads
};

}  // namespace lmkg::core

#endif  // LMKG_CORE_ADAPTIVE_H_
