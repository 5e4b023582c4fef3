#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <ostream>

#include "core/lmkg_s.h"
#include "encoding/query_encoder.h"
#include "query/executor.h"
#include "range/histogram.h"
#include "range/range_encoder.h"
#include "range/range_executor.h"
#include "range/range_independence.h"
#include "range/range_lmkg_s.h"
#include "range/range_query.h"
#include "range/range_workload.h"
#include "test_util.h"
#include "util/math.h"

namespace lmkg::range {
namespace {

using query::PatternTerm;
using query::Query;

PatternTerm B(rdf::TermId id) { return PatternTerm::Bound(id); }
PatternTerm V(int v) { return PatternTerm::Variable(v); }

// Brute-force reference count for range queries: enumerate every variable
// assignment, check triples and bounds. Exponential — tiny graphs only.
uint64_t BruteForceRangeCount(const rdf::Graph& graph, const RangeQuery& q) {
  std::vector<bool> is_pred_var(q.base.num_vars, false);
  for (const auto& t : q.base.patterns)
    if (t.p.is_var()) is_pred_var[t.p.var] = true;
  std::vector<VarBounds> bounds =
      ComputeVarBounds(q, static_cast<rdf::TermId>(graph.num_nodes()));

  std::vector<rdf::TermId> binding(q.base.num_vars, 0);
  uint64_t count = 0;
  std::function<void(int)> recurse = [&](int var) {
    if (var == q.base.num_vars) {
      for (const auto& t : q.base.patterns) {
        auto value = [&](const PatternTerm& term) {
          return term.bound() ? term.value : binding[term.var];
        };
        if (!graph.HasTriple(value(t.s), value(t.p), value(t.o))) return;
      }
      ++count;
      return;
    }
    size_t domain =
        is_pred_var[var] ? graph.num_predicates() : graph.num_nodes();
    for (rdf::TermId v = 1; v <= domain; ++v) {
      if (!is_pred_var[var] && (v < bounds[var].lo || v > bounds[var].hi))
        continue;
      binding[var] = v;
      recurse(var + 1);
    }
  };
  recurse(0);
  return count;
}

// --- EquiDepthHistogram -------------------------------------------------------

TEST(HistogramTest, EmptyHistogram) {
  EquiDepthHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.EstimateCount(1, 100), 0.0);
  EXPECT_DOUBLE_EQ(h.Selectivity(1, 100), 0.0);
}

TEST(HistogramTest, FullRangeIsExact) {
  std::vector<uint32_t> values = {1, 1, 2, 5, 5, 5, 9, 12, 12, 20};
  auto h = EquiDepthHistogram::Build(values, 3);
  EXPECT_DOUBLE_EQ(h.total(), 10.0);
  EXPECT_NEAR(h.EstimateCount(1, 20), 10.0, 1e-9);
  EXPECT_NEAR(h.Selectivity(1, 20), 1.0, 1e-9);
}

TEST(HistogramTest, SingleBucketIsUniform) {
  // 10 values uniformly over ids 1..10, one bucket: half the span is half
  // the mass.
  std::vector<uint32_t> values;
  for (uint32_t v = 1; v <= 10; ++v) values.push_back(v);
  auto h = EquiDepthHistogram::Build(values, 1);
  EXPECT_EQ(h.num_buckets(), 1u);
  EXPECT_NEAR(h.EstimateCount(1, 5), 5.0, 1e-9);
}

TEST(HistogramTest, EqualValuesDoNotStraddleBuckets) {
  // 100 copies of id 7 with tiny depth: every bucket ends at 7, and the
  // estimate for [7, 7] is the full count.
  std::vector<uint32_t> values(100, 7);
  auto h = EquiDepthHistogram::Build(values, 10);
  EXPECT_NEAR(h.EstimateCount(7, 7), 100.0, 1e-9);
  EXPECT_NEAR(h.EstimateCount(1, 6), 0.0, 1e-9);
  EXPECT_NEAR(h.EstimateCount(8, 20), 0.0, 1e-9);
}

TEST(HistogramTest, EmptyRangeAndDisjointRange) {
  std::vector<uint32_t> values = {5, 6, 7, 8};
  auto h = EquiDepthHistogram::Build(values, 2);
  EXPECT_DOUBLE_EQ(h.EstimateCount(9, 3), 0.0);  // hi < lo
  EXPECT_DOUBLE_EQ(h.EstimateCount(20, 30), 0.0);
  EXPECT_DOUBLE_EQ(h.EstimateCount(1, 4), 0.0);
}

TEST(HistogramTest, MonotoneInRangeWidth) {
  util::Pcg32 rng(7, 3);
  std::vector<uint32_t> values;
  for (int i = 0; i < 500; ++i) values.push_back(1 + rng.UniformInt(200));
  auto h = EquiDepthHistogram::Build(values, 16);
  double prev = 0.0;
  for (uint32_t hi = 10; hi <= 200; hi += 10) {
    double count = h.EstimateCount(5, hi);
    EXPECT_GE(count, prev - 1e-9);
    prev = count;
  }
}

// Property sweep: estimates on bucket-aligned ranges are exact; arbitrary
// ranges err at most by the mass of the two boundary buckets.
class HistogramAccuracyTest : public ::testing::TestWithParam<int> {};

TEST_P(HistogramAccuracyTest, BoundedErrorOnRandomData) {
  const int buckets = GetParam();
  util::Pcg32 rng(11, static_cast<uint64_t>(buckets));
  std::vector<uint32_t> values;
  for (int i = 0; i < 2000; ++i)
    values.push_back(1 + static_cast<uint32_t>(
                             std::pow(rng.NextDouble(), 3.0) * 499));
  auto h = EquiDepthHistogram::Build(values, buckets);
  double max_bucket_mass = 0.0;
  // Upper bound on one bucket's mass: ceil(n / buckets) + duplicates can
  // extend a bucket; 3x slack is generous and catches gross errors.
  double depth_bound = 3.0 * std::ceil(2000.0 / buckets);
  for (int trial = 0; trial < 50; ++trial) {
    uint32_t lo = 1 + rng.UniformInt(500);
    uint32_t hi = lo + rng.UniformInt(100);
    double est = h.EstimateCount(lo, hi);
    double exact = 0.0;
    for (uint32_t v : values) exact += (v >= lo && v <= hi) ? 1.0 : 0.0;
    EXPECT_NEAR(est, exact, 2.0 * depth_bound)
        << "[" << lo << ", " << hi << "]";
    max_bucket_mass = std::max(max_bucket_mass, std::abs(est - exact));
  }
}

INSTANTIATE_TEST_SUITE_P(Buckets, HistogramAccuracyTest,
                         ::testing::Values(1, 4, 16, 64));

TEST(HistogramTest, PredicateHistogramsMatchPerPredicateCounts) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(30, 4, 300, 5);
  PredicateHistograms hists(graph, 8);
  for (rdf::TermId p = 1; p <= graph.num_predicates(); ++p) {
    EXPECT_NEAR(hists.histogram(p).total(),
                static_cast<double>(graph.PredicateCount(p)), 1e-9);
    EXPECT_NEAR(hists.Selectivity(p, 1,
                                  static_cast<uint32_t>(graph.num_nodes())),
                1.0, 1e-9);
  }
  EXPECT_GT(hists.MemoryBytes(), 0u);
}

// --- RangeQuery validation ----------------------------------------------------

TEST(RangeQueryTest, ValidAndInvalid) {
  RangeQuery q;
  q.base = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), B(5)}});
  q.ranges = {{0, 3, 9}};
  EXPECT_TRUE(ValidRangeQuery(q));

  RangeQuery bad_index = q;
  bad_index.ranges = {{5, 3, 9}};
  EXPECT_FALSE(ValidRangeQuery(bad_index));

  RangeQuery bound_object = q;
  bound_object.ranges = {{1, 3, 9}};  // pattern 1's object is bound
  EXPECT_FALSE(ValidRangeQuery(bound_object));

  RangeQuery inverted = q;
  inverted.ranges = {{0, 9, 3}};
  EXPECT_FALSE(ValidRangeQuery(inverted));

  RangeQuery zero_lo = q;
  zero_lo.ranges = {{0, 0, 9}};
  EXPECT_FALSE(ValidRangeQuery(zero_lo));
}

TEST(RangeQueryTest, VarBoundsIntersectAcrossPatterns) {
  // ?1 constrained by two patterns: bounds intersect.
  RangeQuery q;
  q.base = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), V(1)}});
  q.ranges = {{0, 3, 20}, {1, 10, 30}};
  ASSERT_TRUE(ValidRangeQuery(q));
  auto bounds = ComputeVarBounds(q, 100);
  EXPECT_EQ(bounds[1].lo, 10u);
  EXPECT_EQ(bounds[1].hi, 20u);
  EXPECT_EQ(bounds[0].lo, 1u);  // unconstrained
  EXPECT_EQ(bounds[0].hi, 100u);
}

TEST(RangeQueryTest, ToStringMentionsRanges) {
  RangeQuery q;
  q.base = query::MakeStarQuery(V(0), {{B(1), V(1)}});
  q.ranges = {{0, 5, 90}};
  std::string s = RangeQueryToString(q);
  EXPECT_NE(s.find("in [5, 90]"), std::string::npos) << s;
}

// --- RangeExecutor ------------------------------------------------------------

TEST(RangeExecutorTest, NoRangesMatchesPlainExecutor) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(15, 3, 100, 9);
  RangeExecutor range_executor(graph);
  query::Executor executor(graph);
  RangeQuery q;
  q.base = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), V(2)}});
  EXPECT_EQ(range_executor.Count(q), executor.Count(q.base));
}

TEST(RangeExecutorTest, ContradictoryRangeIsZero) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(15, 3, 100, 9);
  RangeExecutor executor(graph);
  RangeQuery q;
  q.base = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), V(1)}});
  q.ranges = {{0, 1, 5}, {1, 10, 15}};  // ?1 in [1,5] ∩ [10,15] = ∅
  EXPECT_EQ(executor.Count(q), 0u);
}

TEST(RangeExecutorTest, LimitStopsEarly) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(15, 3, 200, 10);
  RangeExecutor executor(graph);
  RangeQuery q;
  q.base = query::MakeStarQuery(V(0), {{B(1), V(1)}});
  q.ranges = {{0, 1, 15}};
  uint64_t full = executor.Count(q);
  if (full > 2) {
    EXPECT_GE(executor.Count(q, 2), 2u);
  }
}

// Parameterized brute-force verification over random graphs, topologies,
// and range placements.
struct RangeExecCase {
  uint64_t graph_seed;
  int query_size;
  bool star;
};

// The case's test name, e.g. seed1_size2_star. gtest_discover_tests
// names each case after its printed parameter, and gtest's default
// printer would dump the struct's bytes, uninitialised padding included.
void PrintTo(const RangeExecCase& c, std::ostream* os) {
  *os << "seed" << c.graph_seed << "_size" << c.query_size
      << (c.star ? "_star" : "_chain");
}

class RangeExecutorBruteForceTest
    : public ::testing::TestWithParam<RangeExecCase> {};

TEST_P(RangeExecutorBruteForceTest, MatchesBruteForce) {
  const RangeExecCase c = GetParam();
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(12, 3, 80, c.graph_seed);
  RangeExecutor executor(graph);
  util::Pcg32 rng(c.graph_seed * 31 + 7, 2);
  const auto nodes = static_cast<uint32_t>(graph.num_nodes());
  int verified = 0;
  for (int trial = 0; trial < 40; ++trial) {
    RangeQuery q;
    if (c.star) {
      std::vector<std::pair<PatternTerm, PatternTerm>> pairs;
      for (int i = 0; i < c.query_size; ++i)
        pairs.emplace_back(B(1 + rng.UniformInt(3)), V(i + 1));
      q.base = query::MakeStarQuery(V(0), pairs);
    } else {
      std::vector<PatternTerm> chain_nodes;
      std::vector<PatternTerm> preds;
      for (int i = 0; i <= c.query_size; ++i)
        chain_nodes.push_back(V(i));
      for (int i = 0; i < c.query_size; ++i)
        preds.push_back(B(1 + rng.UniformInt(3)));
      q.base = query::MakeChainQuery(chain_nodes, preds);
    }
    // 1-2 random ranges on random patterns.
    int nranges = 1 + static_cast<int>(rng.UniformInt(2));
    for (int r = 0; r < nranges; ++r) {
      uint32_t lo = 1 + rng.UniformInt(nodes);
      uint32_t hi = std::min(nodes, lo + rng.UniformInt(nodes / 2 + 1));
      q.ranges.push_back(
          {static_cast<int>(rng.UniformInt(
               static_cast<uint32_t>(c.query_size))),
           lo, hi});
    }
    if (!ValidRangeQuery(q)) continue;
    ++verified;
    EXPECT_EQ(executor.Count(q), BruteForceRangeCount(graph, q))
        << RangeQueryToString(q);
  }
  EXPECT_GE(verified, 20);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RangeExecutorBruteForceTest,
    ::testing::Values(RangeExecCase{1, 2, true}, RangeExecCase{2, 2, false},
                      RangeExecCase{3, 3, true}, RangeExecCase{4, 3, false},
                      RangeExecCase{5, 2, true}, RangeExecCase{6, 2, false}));

// --- RangeWorkloadGenerator ----------------------------------------------------

TEST(RangeWorkloadTest, GeneratesValidLabeledQueries) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(80, 6, 800, 13);
  RangeWorkloadGenerator generator(graph);
  RangeWorkloadGenerator::Options options;
  options.query_size = 2;
  options.count = 50;
  options.seed = 4;
  auto workload = generator.Generate(options);
  ASSERT_GE(workload.size(), 20u);
  RangeExecutor executor(graph);
  for (const auto& lq : workload) {
    EXPECT_TRUE(ValidRangeQuery(lq.query));
    EXPECT_GE(lq.query.ranges.size(), 1u);
    EXPECT_GE(lq.cardinality, 1.0);
    EXPECT_DOUBLE_EQ(lq.cardinality, executor.Cardinality(lq.query));
  }
}

TEST(RangeWorkloadTest, ChainWorkload) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(80, 6, 800, 14);
  RangeWorkloadGenerator generator(graph);
  RangeWorkloadGenerator::Options options;
  options.topology = query::Topology::kChain;
  options.query_size = 3;
  options.count = 40;
  options.seed = 6;
  auto workload = generator.Generate(options);
  ASSERT_GE(workload.size(), 10u);
  for (const auto& lq : workload) {
    EXPECT_TRUE(ValidRangeQuery(lq.query));
    EXPECT_EQ(lq.size, 3);
  }
}

TEST(RangeWorkloadTest, DeterministicInSeed) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(60, 5, 500, 15);
  RangeWorkloadGenerator generator(graph);
  RangeWorkloadGenerator::Options options;
  options.count = 25;
  options.seed = 77;
  auto a = generator.Generate(options);
  auto b = generator.Generate(options);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(RangeQueryToString(a[i].query),
              RangeQueryToString(b[i].query));
}

// --- RangeQueryEncoder ---------------------------------------------------------

class RangeEncoderTest : public ::testing::Test {
 protected:
  RangeEncoderTest()
      : graph_(lmkg::testing::MakeRandomGraph(40, 4, 400, 17)),
        histograms_(graph_, 8) {}

  std::unique_ptr<RangeQueryEncoder> MakeEncoder(int max_patterns) {
    return std::make_unique<RangeQueryEncoder>(
        encoding::MakeSgEncoder(graph_, max_patterns + 1, max_patterns,
                                encoding::TermEncoding::kBinary),
        &histograms_, max_patterns);
  }

  rdf::Graph graph_;
  PredicateHistograms histograms_;
};

TEST_F(RangeEncoderTest, WidthAddsTwoSlotsPerPattern) {
  auto encoder = MakeEncoder(3);
  EXPECT_EQ(encoder->width(), encoder->base().width() + 6);
}

TEST_F(RangeEncoderTest, UnconstrainedSlotsEncodeFullSelectivity) {
  auto encoder = MakeEncoder(2);
  RangeQuery q;
  q.base = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), V(2)}});
  auto v = encoder->EncodeToVector(q);
  const size_t base = encoder->base().width();
  EXPECT_FLOAT_EQ(v[base + 0], 0.0f);
  EXPECT_FLOAT_EQ(v[base + 1], 1.0f);
  EXPECT_FLOAT_EQ(v[base + 2], 0.0f);
  EXPECT_FLOAT_EQ(v[base + 3], 1.0f);
}

TEST_F(RangeEncoderTest, ConstrainedSlotCarriesHistogramSelectivity) {
  auto encoder = MakeEncoder(2);
  RangeQuery q;
  q.base = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), V(2)}});
  const auto nodes = static_cast<uint32_t>(graph_.num_nodes());
  q.ranges = {{0, 1, nodes / 2}};
  auto v = encoder->EncodeToVector(q);
  const size_t base = encoder->base().width();
  EXPECT_FLOAT_EQ(v[base + 0], 1.0f);
  EXPECT_NEAR(v[base + 1], histograms_.Selectivity(1, 1, nodes / 2), 1e-6);
  // Narrower range, smaller or equal selectivity feature.
  RangeQuery narrow = q;
  narrow.ranges = {{0, 1, nodes / 8}};
  auto w = encoder->EncodeToVector(narrow);
  EXPECT_LE(w[base + 1], v[base + 1] + 1e-6);
}

TEST_F(RangeEncoderTest, RejectsOversizeAndInvalid) {
  auto encoder = MakeEncoder(2);
  RangeQuery big;
  big.base = query::MakeStarQuery(
      V(0), {{B(1), V(1)}, {B(2), V(2)}, {B(3), V(3)}});
  EXPECT_FALSE(encoder->CanEncode(big));
  RangeQuery invalid;
  invalid.base = query::MakeStarQuery(V(0), {{B(1), V(1)}});
  invalid.ranges = {{0, 9, 3}};
  EXPECT_FALSE(encoder->CanEncode(invalid));
}

// --- RangeLmkgS + independence baseline ----------------------------------------

class RangeModelTest : public ::testing::Test {
 protected:
  RangeModelTest()
      : graph_(lmkg::testing::MakeRandomGraph(60, 5, 700, 19)),
        histograms_(graph_, 16) {}

  std::unique_ptr<RangeLmkgS> TrainModel(
      const std::vector<LabeledRangeQuery>& train) {
    core::LmkgSConfig config;
    config.hidden_dim = 48;
    config.epochs = 30;
    config.seed = 5;
    auto model = std::make_unique<RangeLmkgS>(
        std::make_unique<RangeQueryEncoder>(
            encoding::MakeSgEncoder(graph_, 3, 2,
                                    encoding::TermEncoding::kBinary),
            &histograms_, 2),
        config);
    model->Train(train);
    return model;
  }

  std::vector<LabeledRangeQuery> MakeWorkload(size_t count, uint64_t seed) {
    RangeWorkloadGenerator generator(graph_);
    RangeWorkloadGenerator::Options options;
    options.query_size = 2;
    options.count = count;
    options.seed = seed;
    return generator.Generate(options);
  }

  rdf::Graph graph_;
  PredicateHistograms histograms_;
};

TEST_F(RangeModelTest, TrainsAndEstimatesFinitePositives) {
  auto train = MakeWorkload(150, 1);
  ASSERT_GE(train.size(), 50u);
  auto model = TrainModel(train);
  for (size_t i = 0; i < std::min<size_t>(train.size(), 20); ++i) {
    ASSERT_TRUE(model->CanEstimate(train[i].query));
    double est = model->EstimateCardinality(train[i].query);
    EXPECT_TRUE(std::isfinite(est));
    EXPECT_GE(est, 0.0);
  }
  EXPECT_GT(model->MemoryBytes(), 0u);
}

TEST_F(RangeModelTest, BeatsIndependenceBaselineOnHeldOutQueries) {
  auto train = MakeWorkload(250, 3);
  ASSERT_GE(train.size(), 80u);
  auto test = MakeWorkload(60, 99);
  ASSERT_GE(test.size(), 20u);
  auto model = TrainModel(train);
  RangeIndependenceEstimator baseline(graph_, &histograms_);

  std::vector<double> model_q, baseline_q;
  for (const auto& lq : test) {
    if (!model->CanEstimate(lq.query)) continue;
    model_q.push_back(
        util::QError(model->EstimateCardinality(lq.query), lq.cardinality));
    baseline_q.push_back(util::QError(
        baseline.EstimateCardinality(lq.query), lq.cardinality));
  }
  double model_median = util::QErrorStats::Compute(model_q).median;
  double baseline_median = util::QErrorStats::Compute(baseline_q).median;
  // The learned estimator sees correlations the independence baseline
  // cannot; allow generous slack for the small training budget.
  EXPECT_LE(model_median, baseline_median * 2.0)
      << "model=" << model_median << " baseline=" << baseline_median;
}

TEST_F(RangeModelTest, IndependenceBaselineIsExactOnSinglePatternFullRange) {
  RangeIndependenceEstimator baseline(graph_, &histograms_);
  RangeQuery q;
  q.base = query::MakeStarQuery(V(0), {{B(1), V(1)}});
  q.ranges = {{0, 1, static_cast<uint32_t>(graph_.num_nodes())}};
  query::Executor executor(graph_);
  EXPECT_NEAR(baseline.EstimateCardinality(q), executor.Cardinality(q.base),
              executor.Cardinality(q.base) * 0.01 + 1e-6);
}

}  // namespace
}  // namespace lmkg::range
