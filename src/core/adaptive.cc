#include "core/adaptive.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <istream>
#include <limits>
#include <map>
#include <ostream>

#include "encoding/query_encoder.h"
#include "nn/serialize.h"
#include "sampling/composite.h"
#include "util/check.h"
#include "util/strings.h"

namespace lmkg::core {

using query::Query;
using query::Topology;

AdaptiveLmkg::AdaptiveLmkg(const rdf::Graph& graph,
                           const AdaptiveLmkgConfig& config)
    : graph_(graph),
      config_(config),
      monitor_(config.monitor),
      single_pattern_(graph) {
  for (const Combo& combo : config_.initial_combos) {
    LMKG_CHECK(models_.count(combo) == 0)
        << "duplicate initial combo " << TopologyName(combo.topology)
        << "-" << combo.size;
    models_[combo] = TrainSpecialized(combo);
  }
}

// The encoder a combo's model is built on — shared by training and
// snapshot rehydration so a loaded model's input layout can never drift
// from the one it was trained with.
std::unique_ptr<encoding::QueryEncoder> AdaptiveLmkg::MakeComboEncoder(
    const Combo& combo) const {
  if (combo.topology == Topology::kStar)
    return encoding::MakeStarEncoder(graph_, combo.size,
                                     config_.term_encoding);
  if (combo.topology == Topology::kChain)
    return encoding::MakeChainEncoder(graph_, combo.size,
                                      config_.term_encoding);
  // Composite combos: SG-Encoding over trees of that size.
  return encoding::MakeSgEncoder(graph_, combo.size + 1, combo.size,
                                 config_.term_encoding);
}

std::vector<sampling::LabeledQuery> AdaptiveLmkg::GenerateComboWorkload(
    const Combo& combo, size_t count, uint64_t seed) const {
  if (combo.topology == Topology::kStar ||
      combo.topology == Topology::kChain) {
    sampling::WorkloadGenerator generator(graph_);
    sampling::WorkloadGenerator::Options options =
        config_.workload_options;
    options.topology = combo.topology;
    options.query_size = combo.size;
    options.count = count;
    options.seed = seed;
    return generator.Generate(options);
  }
  // Composite combos train on tree workloads of that size.
  sampling::CompositeWorkloadGenerator generator(graph_);
  sampling::CompositeWorkloadGenerator::Options options;
  options.query_size = combo.size;
  options.count = count;
  options.max_cardinality = config_.workload_options.max_cardinality;
  options.seed = seed;
  return generator.Generate(options);
}

std::unique_ptr<LmkgS> AdaptiveLmkg::TrainSpecialized(const Combo& combo) {
  LMKG_CHECK_GE(combo.size, 2) << "size-1 queries are answered exactly";
  const uint64_t seed = config_.seed + 131 * (models_created_++) + 17;

  std::unique_ptr<encoding::QueryEncoder> encoder = MakeComboEncoder(combo);
  std::vector<sampling::LabeledQuery> train = GenerateComboWorkload(
      combo, std::max<size_t>(100, config_.train_queries), seed);
  LMKG_CHECK(!train.empty())
      << "no training data for " << TopologyName(combo.topology) << "-"
      << combo.size;
  LmkgSConfig scfg = config_.s_config;
  scfg.seed = seed + 1;
  auto model = std::make_unique<LmkgS>(std::move(encoder), scfg);
  model->Train(train);
  if (config_.verbose)
    std::cerr << "[adaptive] trained " << TopologyName(combo.topology)
              << "-" << combo.size << " on " << train.size()
              << " queries\n";
  return model;
}

double AdaptiveLmkg::IndependenceFallback(const Query& q) const {
  return IndependenceCombination(graph_, single_pattern_, q);
}

bool AdaptiveLmkg::PendingCanEstimate(const Combo& combo,
                                      const query::Query& q) {
  std::unique_ptr<encoding::QueryEncoder>& probe = mapped_probes_[combo];
  if (probe == nullptr) probe = MakeComboEncoder(combo);
  return probe->CanEncode(q);
}

void AdaptiveLmkg::TouchMapped(const Combo& combo) {
  if (mapped_source_ != nullptr && mapped_hydrated_.count(combo) > 0)
    mapped_source_->Touch(combo);
}

LmkgS* AdaptiveLmkg::HydrateMapped(const Combo& combo) {
  const auto it = std::lower_bound(mapped_pending_.begin(),
                                   mapped_pending_.end(), combo);
  LMKG_CHECK(it != mapped_pending_.end() && *it == combo);
  // Success or failure, the combo leaves the pending set: hydrated
  // models live in models_, failed ones fall back to independence (a
  // bad segment must not be re-probed on every query).
  mapped_pending_.erase(it);
  mapped_probes_.erase(combo);
  std::optional<MappedWeights> weights = mapped_source_->Hydrate(combo);
  if (!weights.has_value()) {
    if (config_.verbose)
      std::cerr << "[adaptive] mapped hydration failed for "
                << TopologyName(combo.topology) << "-" << combo.size
                << "\n";
    return nullptr;
  }
  std::unique_ptr<LmkgS> model =
      LmkgS::CreateMapped(MakeComboEncoder(combo), config_.s_config);
  const util::Status status = model->AttachWeights(
      weights->tensors, weights->log_min, weights->log_max);
  if (!status.ok()) {
    if (config_.verbose)
      std::cerr << "[adaptive] mapped attach failed for "
                << TopologyName(combo.topology) << "-" << combo.size
                << ": " << status.message() << "\n";
    return nullptr;
  }
  model->WarmUp();
  LmkgS* raw = model.get();
  models_[combo] = std::move(model);
  mapped_hydrated_.insert(combo);
  return raw;
}

LmkgS* AdaptiveLmkg::SelectModel(const Query& q) {
  Combo combo{query::ClassifyTopology(q), static_cast<int>(q.size())};
  if (auto it = models_.find(combo); it != models_.end() &&
                                     it->second->CanEstimate(q)) {
    TouchMapped(combo);
    return it->second.get();
  }
  if (std::binary_search(mapped_pending_.begin(), mapped_pending_.end(),
                         combo)) {
    // Exact combo match: hydrate directly — a pre-hydration probe would
    // build the same encoder the hydration itself needs, doubling the
    // cold-start cost of the first estimate.
    if (LmkgS* model = HydrateMapped(combo);
        model != nullptr && model->CanEstimate(q)) {
      TouchMapped(combo);
      return model;
    }
    // Hydration failed (combo dropped) or the hydrated model cannot
    // encode this particular query; continue to the scan.
  }
  // No exact combo model: any model whose encoder fits the query (e.g. a
  // larger SG model) still beats the independence fallback. Merge the
  // hydrated and pending sets in combo order so the pick matches what a
  // fully-streamed registry would choose.
  auto mi = models_.begin();
  size_t pi = 0;
  while (mi != models_.end() || pi < mapped_pending_.size()) {
    const bool take_model =
        pi >= mapped_pending_.size() ||
        (mi != models_.end() && mi->first < mapped_pending_[pi]);
    if (take_model) {
      if (mi->second->CanEstimate(q)) {
        TouchMapped(mi->first);
        return mi->second.get();
      }
      ++mi;
    } else {
      const Combo candidate = mapped_pending_[pi];
      if (PendingCanEstimate(candidate, q)) {
        if (LmkgS* model = HydrateMapped(candidate); model != nullptr) {
          TouchMapped(candidate);
          return model;
        }
        // The failed combo was erased from the pending vector, so pi
        // already indexes the next candidate. The models_ iterator is
        // unaffected (hydration only inserts on success, and this
        // branch is the failure path).
        continue;
      }
      ++pi;
    }
  }
  return nullptr;
}

void AdaptiveLmkg::AttachMappedSource(std::shared_ptr<MappedSource> source,
                                      std::vector<Combo> combos) {
  LMKG_CHECK(source != nullptr);
  LMKG_CHECK(mapped_source_ == nullptr)
      << "a replica attaches at most one mapped source";
  std::sort(combos.begin(), combos.end());
  combos.erase(std::unique(combos.begin(), combos.end()), combos.end());
  // Trained models win over their store-backed counterparts.
  combos.erase(std::remove_if(combos.begin(), combos.end(),
                              [&](const Combo& combo) {
                                return models_.count(combo) > 0;
                              }),
               combos.end());
  mapped_source_ = std::move(source);
  mapped_pending_ = std::move(combos);
}

util::Status AdaptiveLmkg::HydrateAllMapped() {
  while (!mapped_pending_.empty()) {
    const Combo combo = mapped_pending_.front();
    if (HydrateMapped(combo) == nullptr)
      return util::Status::Error(util::StrFormat(
          "adaptive: mapped hydration failed for %s-%d",
          TopologyName(combo.topology), combo.size));
  }
  return util::Status::Ok();
}

LmkgS* AdaptiveLmkg::FindModel(const Combo& combo) {
  const auto it = models_.find(combo);
  return it == models_.end() ? nullptr : it->second.get();
}

std::vector<AdaptiveLmkg::Combo> AdaptiveLmkg::ModelCombos() const {
  std::vector<Combo> combos;
  combos.reserve(num_models());
  for (const auto& [combo, model] : models_) combos.push_back(combo);
  combos.insert(combos.end(), mapped_pending_.begin(),
                mapped_pending_.end());
  return combos;
}

double AdaptiveLmkg::EstimateCardinality(const Query& q) {
  LMKG_CHECK(CanEstimate(q)) << query::QueryToString(q);
  monitor_.Observe(q);
  if (q.patterns.size() == 1)
    return single_pattern_.EstimateCardinality(q);
  if (LmkgS* model = SelectModel(q); model != nullptr)
    return model->EstimateCardinality(q);
  return IndependenceFallback(q);
}

void AdaptiveLmkg::EstimateCardinalityBatch(
    std::span<const Query> queries, std::span<double> out) {
  LMKG_CHECK_EQ(queries.size(), out.size());

  std::vector<size_t> single_pattern_indices;
  std::vector<std::pair<LmkgS*, std::vector<size_t>>> groups;
  std::map<LmkgS*, size_t> group_of;
  std::vector<size_t> fallback_indices;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    LMKG_CHECK(CanEstimate(q)) << query::QueryToString(q);
    monitor_.Observe(q);
    if (q.patterns.size() == 1) {
      single_pattern_indices.push_back(i);
    } else if (LmkgS* model = SelectModel(q); model != nullptr) {
      auto [it, inserted] = group_of.emplace(model, groups.size());
      if (inserted) groups.emplace_back(model, std::vector<size_t>{});
      groups[it->second].second.push_back(i);
    } else {
      fallback_indices.push_back(i);
    }
  }

  single_pattern_.EstimateIndexedBatch(queries, single_pattern_indices, out);
  for (auto& [model, indices] : groups)
    model->EstimateIndexedBatch(queries, indices, out);
  for (size_t i : fallback_indices) out[i] = IndependenceFallback(queries[i]);
}

bool AdaptiveLmkg::CanEstimate(const Query& q) const {
  return !q.patterns.empty();
}

void AdaptiveLmkg::IngestFeedback(
    std::vector<sampling::LabeledQuery> pairs) {
  for (sampling::LabeledQuery& pair : pairs) {
    if (pair.size < 2) continue;  // size-1 is answered exactly
    std::vector<sampling::LabeledQuery>& pending =
        pending_feedback_[Combo{pair.topology, pair.size}];
    // Bounded: evict the OLDEST pending pair — under drift the newest
    // truths are the ones worth keeping.
    if (config_.feedback_pending_cap > 0 &&
        pending.size() >= config_.feedback_pending_cap)
      pending.erase(pending.begin());
    pending.push_back(std::move(pair));
  }
}

size_t AdaptiveLmkg::pending_feedback_pairs() const {
  size_t total = 0;
  for (const auto& [combo, pending] : pending_feedback_)
    total += pending.size();
  return total;
}

AdaptiveLmkg::AdaptReport AdaptiveLmkg::Adapt() {
  AdaptReport report;
  // Create models for hot uncovered combos (size-1 needs no model;
  // composite shapes need >= 3 patterns for a genuine tree workload —
  // 2-pattern composites stay on the independence fallback).
  for (const Combo& combo : monitor_.HotCombos()) {
    // Covers() includes pending mapped combos: a store-backed model that
    // simply hasn't been queried yet must not be shadowed by a freshly
    // trained one.
    if (combo.size < 2 || Covers(combo)) continue;
    if (combo.topology == query::Topology::kComposite && combo.size < 3)
      continue;
    models_[combo] = TrainSpecialized(combo);
    report.created.push_back(combo);
  }
  // Enforce the memory budget by dropping cold models, coldest first.
  // The shares cannot change inside the pass (the monitor only moves on
  // Observe), so build the combo -> share map once instead of rescanning
  // Shares() per model per eviction, and seed the running minimum with
  // +inf so a cold model sitting exactly at a share boundary is still
  // eligible — candidacy is decided by IsCold alone, the share only
  // orders the candidates.
  if (config_.memory_budget_bytes > 0 &&
      MemoryBytes() > config_.memory_budget_bytes) {
    std::map<Combo, double> share_of;
    for (const auto& cs : monitor_.Shares()) share_of[cs.combo] = cs.share;
    while (MemoryBytes() > config_.memory_budget_bytes) {
      auto coldest = models_.end();
      double coldest_share = std::numeric_limits<double>::infinity();
      for (auto it = models_.begin(); it != models_.end(); ++it) {
        if (!monitor_.IsCold(it->first)) continue;
        const auto found = share_of.find(it->first);
        const double share =
            found != share_of.end() ? found->second : 0.0;
        if (share < coldest_share) {
          coldest = it;
          coldest_share = share;
        }
      }
      if (coldest == models_.end()) break;  // nothing cold to drop
      report.dropped.push_back(coldest->first);
      if (config_.verbose)
        std::cerr << "[adaptive] dropped "
                  << TopologyName(coldest->first.topology) << "-"
                  << coldest->first.size << "\n";
      mapped_hydrated_.erase(coldest->first);
      models_.erase(coldest);
    }
  }
  // Feedback retrains: combos with enough pending executed-query truths
  // continue training from their current weights on a blend of those
  // truths and a fresh synthetic refresh workload. Combos whose model
  // was just created trained on a synthetic set already — their pending
  // pairs stay queued for the NEXT cycle so the fresh weights get one
  // settling round first. Combos that can never have a model drop their
  // pairs (they are served by the fallback regardless).
  for (auto it = pending_feedback_.begin();
       it != pending_feedback_.end();) {
    const Combo combo = it->first;
    std::vector<sampling::LabeledQuery>& pending = it->second;
    const bool unservable =
        combo.size < 2 ||
        (combo.topology == query::Topology::kComposite && combo.size < 3);
    if (unservable || pending.empty()) {
      it = pending_feedback_.erase(it);
      continue;
    }
    const auto model_it = models_.find(combo);
    const bool just_created =
        std::find(report.created.begin(), report.created.end(), combo) !=
        report.created.end();
    if (model_it == models_.end() || just_created ||
        pending.size() < config_.feedback_min_pairs) {
      ++it;
      continue;
    }
    const uint64_t seed =
        config_.seed + 977 * (feedback_retrains_++) + 43;
    std::vector<sampling::LabeledQuery> refresh = GenerateComboWorkload(
        combo, std::max<size_t>(1, config_.feedback_refresh_queries),
        seed);
    std::vector<sampling::LabeledQuery> blended =
        sampling::BlendTrainingSets(std::move(pending), std::move(refresh),
                                    config_.feedback_blend);
    model_it->second->Train(blended);
    report.updated.push_back(combo);
    if (config_.verbose)
      std::cerr << "[adaptive] feedback-retrained "
                << TopologyName(combo.topology) << "-" << combo.size
                << " on " << blended.size() << " blended pairs\n";
    it = pending_feedback_.erase(it);
  }
  return report;
}

size_t AdaptiveLmkg::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& [combo, model] : models_) bytes += model->MemoryBytes();
  return bytes;
}

namespace {

constexpr uint32_t kSnapshotMagic = 0x4c4d4b41;  // "LMKA"
constexpr uint32_t kSnapshotVersion = 1;
// Upper bound on a plausible combo size in a snapshot: far above any
// trainable query size, far below anything that could push a corrupt
// value into encoder-width arithmetic (or a bad_alloc out of a function
// spec'd to return a Status).
constexpr uint32_t kMaxComboSize = 256;

}  // namespace

util::Status AdaptiveLmkg::Save(std::ostream& out) {
  // The snapshot must carry every served model, so pending mapped
  // combos are hydrated first (their borrowed weights serialize like
  // any other — SaveParams reads through const access).
  if (util::Status status = HydrateAllMapped(); !status.ok())
    return status;
  nn::WriteU32(out, kSnapshotMagic);
  nn::WriteU32(out, kSnapshotVersion);
  // Config header: enough to reject a Load into a mismatched
  // architecture before touching any tensor (the per-tensor shape checks
  // in nn::LoadParams then catch anything subtler, e.g. a graph whose
  // encoder widths differ).
  nn::WriteU32(out, static_cast<uint32_t>(config_.term_encoding));
  nn::WriteU32(out, static_cast<uint32_t>(config_.s_config.hidden_dim));
  nn::WriteU32(out,
               static_cast<uint32_t>(config_.s_config.num_hidden_layers));
  nn::WriteU64(out, static_cast<uint64_t>(models_created_));
  const WorkloadMonitor::SavedState monitor = monitor_.SaveState();
  nn::WriteU64(out, monitor.observations);
  nn::WriteF64(out, monitor.total_weight);
  nn::WriteU32(out, static_cast<uint32_t>(monitor.entries.size()));
  for (const auto& e : monitor.entries) {
    nn::WriteU32(out, static_cast<uint32_t>(e.combo.topology));
    nn::WriteU32(out, static_cast<uint32_t>(e.combo.size));
    nn::WriteF64(out, e.weight);
    nn::WriteU64(out, e.stamp);
  }
  nn::WriteU32(out, static_cast<uint32_t>(models_.size()));
  for (auto& [combo, model] : models_) {
    nn::WriteU32(out, static_cast<uint32_t>(combo.topology));
    nn::WriteU32(out, static_cast<uint32_t>(combo.size));
    util::Status status = model->Save(out);
    if (!status.ok()) return status;
  }
  out.flush();
  if (!out) return util::Status::Error("adaptive: snapshot write failed");
  return util::Status::Ok();
}

util::Status AdaptiveLmkg::Load(std::istream& in) {
  uint32_t magic = 0, version = 0;
  if (!nn::ReadU32(in, &magic) || magic != kSnapshotMagic)
    return util::Status::Error(
        "adaptive: bad magic (not an LMKG adaptive snapshot)");
  if (!nn::ReadU32(in, &version) || version != kSnapshotVersion)
    return util::Status::Error(util::StrFormat(
        "adaptive: unsupported snapshot version %u", version));
  uint32_t term_encoding = 0, hidden_dim = 0, hidden_layers = 0;
  if (!nn::ReadU32(in, &term_encoding) || !nn::ReadU32(in, &hidden_dim) ||
      !nn::ReadU32(in, &hidden_layers))
    return util::Status::Error("adaptive: truncated config header");
  if (term_encoding != static_cast<uint32_t>(config_.term_encoding) ||
      hidden_dim != static_cast<uint32_t>(config_.s_config.hidden_dim) ||
      hidden_layers !=
          static_cast<uint32_t>(config_.s_config.num_hidden_layers))
    return util::Status::Error(util::StrFormat(
        "adaptive: config mismatch (snapshot encoding=%u hidden=%u "
        "layers=%u; model encoding=%u hidden=%zu layers=%d)",
        term_encoding, hidden_dim, hidden_layers,
        static_cast<uint32_t>(config_.term_encoding),
        config_.s_config.hidden_dim, config_.s_config.num_hidden_layers));
  uint64_t created = 0;
  if (!nn::ReadU64(in, &created))
    return util::Status::Error("adaptive: truncated header");
  WorkloadMonitor::SavedState monitor;
  uint32_t monitor_entries = 0;
  if (!nn::ReadU64(in, &monitor.observations) ||
      !nn::ReadF64(in, &monitor.total_weight) ||
      !nn::ReadU32(in, &monitor_entries))
    return util::Status::Error("adaptive: truncated monitor state");
  // A NaN/negative total slips past the monitor's `total_weight_ <= 0`
  // empty-state guards and would turn every share into NaN.
  if (!std::isfinite(monitor.total_weight) || monitor.total_weight < 0.0)
    return util::Status::Error("adaptive: corrupt monitor total weight");
  monitor.entries.resize(monitor_entries);
  for (auto& e : monitor.entries) {
    uint32_t topology = 0, size = 0;
    if (!nn::ReadU32(in, &topology) || !nn::ReadU32(in, &size) ||
        !nn::ReadF64(in, &e.weight) || !nn::ReadU64(in, &e.stamp))
      return util::Status::Error("adaptive: truncated monitor entry");
    if (topology > static_cast<uint32_t>(Topology::kComposite) ||
        size > kMaxComboSize)
      return util::Status::Error("adaptive: corrupt monitor combo");
    // A stamp from the future or a non-finite/negative weight would feed
    // DecayedWeight a negative exponent or NaN and silently poison every
    // share — reject corruption here like the model registry does.
    if (e.stamp > monitor.observations || !std::isfinite(e.weight) ||
        e.weight < 0.0)
      return util::Status::Error("adaptive: corrupt monitor entry");
    e.combo = Combo{static_cast<Topology>(topology),
                    static_cast<int>(size)};
  }
  uint32_t num_models = 0;
  if (!nn::ReadU32(in, &num_models))
    return util::Status::Error("adaptive: truncated model registry");
  // Rehydrate into a scratch registry first: a mid-stream failure must
  // leave the current serving state untouched.
  std::map<Combo, std::unique_ptr<LmkgS>> loaded;
  for (uint32_t i = 0; i < num_models; ++i) {
    uint32_t topology = 0, size = 0;
    if (!nn::ReadU32(in, &topology) || !nn::ReadU32(in, &size))
      return util::Status::Error("adaptive: truncated model header");
    if (topology > static_cast<uint32_t>(Topology::kComposite) ||
        size < 2 || size > kMaxComboSize)
      return util::Status::Error("adaptive: corrupt model combo");
    Combo combo{static_cast<Topology>(topology), static_cast<int>(size)};
    auto model =
        std::make_unique<LmkgS>(MakeComboEncoder(combo), config_.s_config);
    util::Status status = model->Load(in);
    if (!status.ok()) return status;
    if (!loaded.emplace(combo, std::move(model)).second)
      return util::Status::Error("adaptive: duplicate combo in snapshot");
  }
  models_ = std::move(loaded);
  // A full snapshot replaces the registry wholesale; whatever mapped
  // models were attached (pending or hydrated) are superseded with it.
  mapped_pending_.clear();
  mapped_probes_.clear();
  mapped_hydrated_.clear();
  monitor_.RestoreState(monitor);
  models_created_ = static_cast<size_t>(created);
  return util::Status::Ok();
}

}  // namespace lmkg::core
