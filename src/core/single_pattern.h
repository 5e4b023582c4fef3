#ifndef LMKG_CORE_SINGLE_PATTERN_H_
#define LMKG_CORE_SINGLE_PATTERN_H_

#include "core/estimator.h"
#include "query/executor.h"
#include "rdf/graph.h"

namespace lmkg::core {

/// Exact estimator for single triple patterns. With one pattern the
/// cardinality is an index statistic (out-degree, predicate count, ...)
/// every RDF engine keeps anyway, so LMKG answers size-1 queries and the
/// size-1 leftovers of query decomposition directly from the graph instead
/// of a learned model (the learned models start at 2 joins, paper §VIII).
class SinglePatternEstimator : public CardinalityEstimator {
 public:
  explicit SinglePatternEstimator(const rdf::Graph& graph);

  double EstimateCardinality(const query::Query& q) override;
  /// Index lookups need no batching per se; the override skips the
  /// per-query virtual dispatch of the base fallback.
  void EstimateCardinalityBatch(std::span<const query::Query> queries,
                                std::span<double> out) override;
  bool CanEstimate(const query::Query& q) const override;
  std::string name() const override { return "single-pattern"; }
  /// The statistics live in the graph's indexes; the estimator itself
  /// holds nothing.
  size_t MemoryBytes() const override { return 0; }

 private:
  query::Executor executor_;
};

/// The independence combination of exact single-pattern statistics:
/// product of per-pattern counts, divided by the join variable's domain
/// for every repeated variable occurrence (attribute-value-independence,
/// the estimate a plain RDF engine's optimizer would use):
///
///   est(q) = Π_i exact(pattern_i) / Π_{v} domain(v)^(occ(v) - 1)
///
/// Shared by AdaptiveLmkg's fallback path and the standalone
/// IndependenceEstimator so the two can never drift apart.
double IndependenceCombination(const rdf::Graph& graph,
                               SinglePatternEstimator& single,
                               const query::Query& q);

/// Standalone always-available estimator over IndependenceCombination:
/// the classical single-attribute-synopsis estimator in the style of the
/// Jena ARQ optimizer (Stocker et al., WWW 2008) and RDF-3X's statistics.
/// Every triple pattern is estimated in isolation from exact index
/// statistics, then the estimates are combined under attribute
/// independence and join uniformity.
///
/// This is the approach whose failure mode motivates LMKG (paper §I/§II:
/// "the introduced estimation functions assume independence between the
/// attributes which leads to underestimations" — correlated predicates
/// make the product collapse far below the true count). It is the
/// correlation-blindness baseline in bench_ext_baselines, the baseline
/// the feedback loop's deactivation list compares the learned models
/// against (a fingerprint whose model keeps losing to THIS is routed
/// here), and the estimator deactivated traffic is served from.
class IndependenceEstimator : public CardinalityEstimator {
 public:
  explicit IndependenceEstimator(const rdf::Graph& graph);

  double EstimateCardinality(const query::Query& q) override;
  bool CanEstimate(const query::Query& q) const override {
    return !q.patterns.empty();
  }
  std::string name() const override { return "independence"; }
  /// Statistics live in the graph's indexes.
  size_t MemoryBytes() const override { return 0; }

 private:
  const rdf::Graph& graph_;
  SinglePatternEstimator single_;
};

}  // namespace lmkg::core

#endif  // LMKG_CORE_SINGLE_PATTERN_H_
