#include <gtest/gtest.h>

#include <cmath>

#include "baselines/cset.h"
#include "baselines/impr.h"
#include "baselines/jsub.h"
#include "baselines/mscn.h"
#include "baselines/sumrdf.h"
#include "baselines/wander_join.h"
#include "core/single_pattern.h"
#include "query/executor.h"
#include "sampling/workload.h"
#include "test_util.h"
#include "util/math.h"

namespace lmkg::baselines {
namespace {

using core::IndependenceEstimator;
using query::PatternTerm;
using query::Query;
using query::Topology;

PatternTerm B(rdf::TermId id) { return PatternTerm::Bound(id); }
PatternTerm V(int v) { return PatternTerm::Variable(v); }

// --- CSET ------------------------------------------------------------------

TEST(CsetTest, ExactOnHomogeneousStars) {
  // Every subject emits exactly predicates {1, 2} once: the
  // characteristic-set formula is exact for the unbound-object star.
  rdf::Graph graph;
  for (rdf::TermId s = 1; s <= 10; ++s) {
    graph.AddTripleIds(s, 1, 20 + s);
    graph.AddTripleIds(s, 2, 40 + s);
  }
  graph.Finalize();
  CsetEstimator cset(graph);
  EXPECT_EQ(cset.num_characteristic_sets(), 1u);
  Query q = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), V(2)}});
  ASSERT_TRUE(cset.CanEstimate(q));
  EXPECT_NEAR(cset.EstimateCardinality(q), 10.0, 1e-9);
}

TEST(CsetTest, MultiplicityHandling) {
  // Subjects emit predicate 1 twice on average; occurrences/count = 2.
  rdf::Graph graph;
  for (rdf::TermId s = 1; s <= 5; ++s) {
    graph.AddTripleIds(s, 1, 10 + s);
    graph.AddTripleIds(s, 1, 20 + s);
  }
  graph.Finalize();
  CsetEstimator cset(graph);
  // Star-2 with both patterns on predicate 1, objects unbound:
  // per subject 2*2 = 4 combinations => 20 total (matches the ordered
  // tuple semantics of the executor).
  Query q = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(1), V(2)}});
  query::Executor executor(graph);
  EXPECT_NEAR(cset.EstimateCardinality(q), executor.Cardinality(q), 1e-9);
}

TEST(CsetTest, SupersetSetsContribute) {
  rdf::Graph graph;
  // 4 subjects with {1}, 3 with {1,2}.
  for (rdf::TermId s = 1; s <= 4; ++s) graph.AddTripleIds(s, 1, 50);
  for (rdf::TermId s = 5; s <= 7; ++s) {
    graph.AddTripleIds(s, 1, 50);
    graph.AddTripleIds(s, 2, 60);
  }
  graph.Finalize();
  CsetEstimator cset(graph);
  EXPECT_EQ(cset.num_characteristic_sets(), 2u);
  Query q1 = query::MakeStarQuery(V(0), {{B(1), V(1)}});
  EXPECT_NEAR(cset.EstimateCardinality(q1), 7.0, 1e-9);
  Query q12 = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), V(2)}});
  EXPECT_NEAR(cset.EstimateCardinality(q12), 3.0, 1e-9);
}

TEST(CsetTest, BoundObjectAppliesSelectivity) {
  rdf::Graph graph;
  for (rdf::TermId s = 1; s <= 8; ++s)
    graph.AddTripleIds(s, 1, 100 + (s % 4));  // 4 distinct objects
  graph.Finalize();
  CsetEstimator cset(graph);
  Query q = query::MakeStarQuery(V(0), {{B(1), B(101)}});
  // 8 subjects * (1/4 distinct objects) = 2 (and the true count is 2).
  EXPECT_NEAR(cset.EstimateCardinality(q), 2.0, 1e-9);
}

TEST(CsetTest, ChainEstimateIsReasonable) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(30, 3, 300, 4);
  CsetEstimator cset(graph);
  Query q = query::MakeChainQuery({V(0), V(1), V(2)}, {B(1), B(2)});
  query::Executor executor(graph);
  double truth = executor.Cardinality(q);
  double est = cset.EstimateCardinality(q);
  EXPECT_GT(est, 0.0);
  // Textbook join estimate: same order of magnitude on a random graph.
  EXPECT_LT(util::QError(est, truth), 10.0);
}

TEST(CsetTest, RequiresBoundPredicates) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(10, 2, 40, 5);
  CsetEstimator cset(graph);
  Query q = query::MakeStarQuery(V(0), {{V(1), V(2)}, {V(3), V(4)}});
  EXPECT_FALSE(cset.CanEstimate(q));
}

TEST(CsetTest, MemoryGrowsWithSetCount) {
  rdf::Graph small = lmkg::testing::MakeRandomGraph(10, 2, 30, 6);
  rdf::Graph large = lmkg::testing::MakeRandomGraph(200, 8, 2000, 6);
  EXPECT_GT(CsetEstimator(large).MemoryBytes(),
            CsetEstimator(small).MemoryBytes());
}

// --- SUMRDF ------------------------------------------------------------------

TEST(SumRdfTest, SinglePatternExpectationIsExact) {
  // For (?x p ?y) the bucket factors cancel: est = triple count of p.
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(40, 4, 400, 7);
  SumRdfEstimator sumrdf(graph);
  for (rdf::TermId p = 1; p <= graph.num_predicates(); ++p) {
    Query q;
    q.patterns.push_back({V(0), B(p), V(1)});
    query::NormalizeVariables(&q);
    EXPECT_NEAR(sumrdf.EstimateCardinality(q),
                static_cast<double>(graph.PredicateCount(p)),
                graph.PredicateCount(p) * 1e-9 + 1e-9);
  }
}

TEST(SumRdfTest, StarAndChainProduceFiniteEstimates) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(40, 4, 400, 8);
  SumRdfEstimator sumrdf(graph);
  Query star = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), V(2)}});
  Query chain = query::MakeChainQuery({V(0), V(1), V(2)}, {B(1), B(2)});
  EXPECT_TRUE(std::isfinite(sumrdf.EstimateCardinality(star)));
  EXPECT_TRUE(std::isfinite(sumrdf.EstimateCardinality(chain)));
  EXPECT_GE(sumrdf.EstimateCardinality(star), 0.0);
}

TEST(SumRdfTest, RejectsUnboundPredicates) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(10, 2, 40, 9);
  SumRdfEstimator sumrdf(graph);
  Query q;
  q.patterns.push_back({V(0), V(1), V(2)});
  query::NormalizeVariables(&q);
  EXPECT_FALSE(sumrdf.CanEstimate(q));
}

TEST(SumRdfTest, FinerBucketsAreMoreAccurate) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(60, 4, 500, 10);
  query::Executor executor(graph);
  SumRdfEstimator::Options coarse_opts;
  coarse_opts.target_buckets = 2;
  SumRdfEstimator coarse(graph, coarse_opts);
  SumRdfEstimator::Options fine_opts;
  fine_opts.target_buckets = 4096;
  SumRdfEstimator fine(graph, fine_opts);

  auto workload = [&] {
    sampling::WorkloadGenerator generator(graph);
    sampling::WorkloadGenerator::Options options;
    options.topology = Topology::kStar;
    options.query_size = 2;
    options.count = 40;
    options.seed = 3;
    return generator.Generate(options);
  }();
  ASSERT_GT(workload.size(), 10u);
  double coarse_err = 0, fine_err = 0;
  for (const auto& lq : workload) {
    coarse_err +=
        util::QError(coarse.EstimateCardinality(lq.query), lq.cardinality);
    fine_err +=
        util::QError(fine.EstimateCardinality(lq.query), lq.cardinality);
  }
  EXPECT_LE(fine_err, coarse_err * 1.2);
}

// --- WanderJoin ------------------------------------------------------------------

TEST(WanderJoinTest, NearlyUnbiasedWithManyWalks) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(25, 3, 220, 11);
  query::Executor executor(graph);
  WanderJoinEstimator::Options options;
  options.num_walks = 20000;
  options.seed = 1;
  WanderJoinEstimator wj(graph, options);
  Query star = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), V(2)}});
  double truth = executor.Cardinality(star);
  ASSERT_GT(truth, 0.0);
  EXPECT_NEAR(wj.EstimateCardinality(star), truth, truth * 0.15);

  Query chain = query::MakeChainQuery({V(0), V(1), V(2)}, {B(1), B(2)});
  truth = executor.Cardinality(chain);
  ASSERT_GT(truth, 0.0);
  EXPECT_NEAR(wj.EstimateCardinality(chain), truth, truth * 0.15);
}

TEST(WanderJoinTest, ZeroForImpossibleQuery) {
  rdf::Graph graph;
  graph.AddTripleIds(1, 1, 2);
  graph.AddTripleIds(3, 2, 4);
  graph.Finalize();
  WanderJoinEstimator wj(graph);
  // Chain 1 -p1-> x -p2-> y is impossible (2 has no out-edges).
  Query q = query::MakeChainQuery({B(1), V(0), V(1)}, {B(1), B(2)});
  EXPECT_DOUBLE_EQ(wj.EstimateCardinality(q), 0.0);
}

TEST(WanderJoinTest, HandlesBoundTerms) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(25, 3, 220, 12);
  query::Executor executor(graph);
  WanderJoinEstimator::Options options;
  options.num_walks = 20000;
  options.seed = 2;
  WanderJoinEstimator wj(graph, options);
  // Find a star-2 with a bound object that actually matches something.
  sampling::WorkloadGenerator generator(graph);
  sampling::WorkloadGenerator::Options wopts;
  wopts.topology = Topology::kStar;
  wopts.query_size = 2;
  wopts.count = 5;
  wopts.unbind_object_prob = 0.0;  // keep objects bound
  wopts.seed = 4;
  auto workload = generator.Generate(wopts);
  ASSERT_FALSE(workload.empty());
  for (const auto& lq : workload) {
    double est = wj.EstimateCardinality(lq.query);
    EXPECT_LT(util::QError(est, lq.cardinality), 2.0);
  }
}

// --- JSUB ------------------------------------------------------------------

TEST(JsubTest, UnbiasedButUpperBoundFlavored) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(25, 3, 220, 13);
  query::Executor executor(graph);
  JsubEstimator::Options options;
  options.num_walks = 40000;
  options.seed = 3;
  JsubEstimator jsub(graph, options);
  Query star = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), V(2)}});
  double truth = executor.Cardinality(star);
  ASSERT_GT(truth, 0.0);
  // Unbiased in expectation (generous tolerance: higher variance).
  EXPECT_NEAR(jsub.EstimateCardinality(star), truth, truth * 0.35);
}

TEST(JsubTest, MemoryIsFanoutTables) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(25, 3, 220, 14);
  JsubEstimator jsub(graph);
  EXPECT_GT(jsub.MemoryBytes(), 0u);
  EXPECT_LT(jsub.MemoryBytes(), 10000u);
}

// --- IMPR ------------------------------------------------------------------

TEST(ImprTest, RoughlyUnbiasedOnTinyGraph) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(12, 2, 60, 15);
  query::Executor executor(graph);
  ImprEstimator::Options options;
  options.num_walks = 60000;
  options.seed = 4;
  ImprEstimator impr(graph, options);
  Query star = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), V(2)}});
  double truth = executor.Cardinality(star);
  ASSERT_GT(truth, 0.0);
  // IMPR has far higher variance than WJ (that is its role in the
  // paper's figures); accept a wide band around the truth.
  double est = impr.EstimateCardinality(star);
  EXPECT_GT(est, truth * 0.5);
  EXPECT_LT(est, truth * 2.0);
}

TEST(ImprTest, FiniteOnChains) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(12, 2, 60, 16);
  ImprEstimator impr(graph);
  Query chain = query::MakeChainQuery({V(0), V(1), V(2)}, {B(1), B(2)});
  double est = impr.EstimateCardinality(chain);
  EXPECT_TRUE(std::isfinite(est));
  EXPECT_GE(est, 0.0);
}

// --- MSCN ------------------------------------------------------------------

class MscnTest : public ::testing::Test {
 protected:
  MscnTest() : graph_(lmkg::testing::MakeRandomGraph(40, 5, 500, 17)) {}

  std::vector<sampling::LabeledQuery> MixedWorkload(size_t count,
                                                    uint64_t seed) {
    sampling::WorkloadGenerator generator(graph_);
    std::vector<sampling::LabeledQuery> all;
    for (Topology t : {Topology::kStar, Topology::kChain}) {
      sampling::WorkloadGenerator::Options options;
      options.topology = t;
      options.query_size = 2;
      options.count = count / 2;
      options.seed = seed + (t == Topology::kChain ? 1 : 0);
      auto part = generator.Generate(options);
      all.insert(all.end(), part.begin(), part.end());
    }
    return all;
  }

  rdf::Graph graph_;
};

TEST_F(MscnTest, TrainsAndLossDecreases) {
  MscnConfig config;
  config.num_samples = 0;
  config.hidden_dim = 32;
  config.epochs = 30;
  config.seed = 5;
  MscnEstimator mscn(graph_, config);
  auto train = MixedWorkload(300, 61);
  ASSERT_GT(train.size(), 100u);
  auto stats = mscn.Train(train);
  EXPECT_LT(stats.epoch_losses.back(), stats.epoch_losses.front());
  EXPECT_EQ(mscn.name(), "mscn-0");
}

TEST_F(MscnTest, SampleBitmapsImproveOverNoSamples) {
  auto train = MixedWorkload(400, 62);
  auto test = MixedWorkload(100, 63);
  ASSERT_GT(test.size(), 30u);
  auto median_qerror = [&](MscnEstimator& model) {
    std::vector<double> qerrors;
    for (const auto& lq : test)
      qerrors.push_back(util::QError(model.EstimateCardinality(lq.query),
                                     lq.cardinality));
    return util::QErrorStats::Compute(std::move(qerrors)).median;
  };
  MscnConfig c0;
  c0.num_samples = 0;
  c0.hidden_dim = 32;
  c0.epochs = 25;
  c0.seed = 6;
  MscnEstimator mscn0(graph_, c0);
  mscn0.Train(train);
  MscnConfig c1 = c0;
  c1.num_samples = 200;
  MscnEstimator mscn1(graph_, c1);
  mscn1.Train(train);
  double m0 = median_qerror(mscn0);
  double m1 = median_qerror(mscn1);
  // The bitmap variant should not be (much) worse — in the paper
  // MSCN-1k beats MSCN-0 consistently.
  EXPECT_LE(m1, m0 * 1.5);
  EXPECT_LT(m1, 20.0);
  EXPECT_EQ(mscn1.name(), "mscn-200");
}

TEST_F(MscnTest, PatternWidthIncludesBitmap) {
  MscnConfig config;
  config.num_samples = 64;
  MscnEstimator mscn(graph_, config);
  EXPECT_EQ(mscn.pattern_width(), 6u + 64u);
  EXPECT_GT(mscn.MemoryBytes(), 0u);
}

TEST_F(MscnTest, EstimateBeforeTrainAborts) {
  MscnConfig config;
  MscnEstimator mscn(graph_, config);
  Query q = query::MakeStarQuery(V(0), {{B(1), V(1)}, {B(2), V(2)}});
  EXPECT_DEATH(mscn.EstimateCardinality(q), "before Train");
}

// --- IndependenceEstimator ----------------------------------------------------

TEST(IndependenceTest, ExactOnSinglePatterns) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(20, 4, 150, 31);
  IndependenceEstimator indep(graph);
  query::Executor executor(graph);
  for (rdf::TermId p = 1; p <= graph.num_predicates(); ++p) {
    Query q = query::MakeStarQuery(V(0), {{B(p), V(1)}});
    EXPECT_DOUBLE_EQ(indep.EstimateCardinality(q), executor.Cardinality(q));
  }
}

TEST(IndependenceTest, UnderestimatesPerfectlyCorrelatedPredicates) {
  // Books: every hasAuthor subject also has a genre (perfect predicate
  // co-occurrence); many unrelated nodes inflate the variable domain. The
  // independence product divides by the full domain and collapses.
  rdf::Graph graph;
  for (int b = 0; b < 20; ++b) {
    std::string book = "book/" + std::to_string(b);
    graph.AddTriple(book, "hasAuthor", "author/" + std::to_string(b % 4));
    graph.AddTriple(book, "genre", "genre/" + std::to_string(b % 3));
  }
  for (int n = 0; n < 200; ++n)
    graph.AddTriple("node/" + std::to_string(n), "link",
                    "node/" + std::to_string((n + 1) % 200));
  graph.Finalize();

  rdf::TermId has_author = *graph.dict().FindPredicate("hasAuthor");
  rdf::TermId genre = *graph.dict().FindPredicate("genre");
  Query q = query::MakeStarQuery(V(0), {{B(has_author), V(1)},
                                        {B(genre), V(2)}});
  query::Executor executor(graph);
  double exact = executor.Cardinality(q);
  ASSERT_GE(exact, 20.0);  // every book matches
  IndependenceEstimator indep(graph);
  double est = indep.EstimateCardinality(q);
  // The motivating failure (paper SI/SII): at least 2x under.
  EXPECT_LE(est * 2.0, exact) << "est=" << est << " exact=" << exact;
}

TEST(IndependenceTest, JoinUniformityDividesByDomain) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(25, 3, 200, 33);
  IndependenceEstimator indep(graph);
  // A chain (?0 p1 ?1)(?1 p2 ?2): estimate = c1 * c2 / num_nodes.
  Query chain = query::MakeChainQuery({V(0), V(1), V(2)}, {B(1), B(2)});
  Query first = query::MakeStarQuery(V(0), {{B(1), V(1)}});
  Query second = query::MakeStarQuery(V(0), {{B(2), V(1)}});
  double c1 = indep.EstimateCardinality(first);
  double c2 = indep.EstimateCardinality(second);
  EXPECT_NEAR(indep.EstimateCardinality(chain),
              c1 * c2 / static_cast<double>(graph.num_nodes()), 1e-9);
}

TEST(IndependenceTest, HandlesPredicateVariables) {
  rdf::Graph graph = lmkg::testing::MakeRandomGraph(15, 3, 100, 34);
  IndependenceEstimator indep(graph);
  Query q;
  query::TriplePattern a;
  a.s = V(0);
  a.p = V(1);
  a.o = V(2);
  query::TriplePattern b;
  b.s = V(2);
  b.p = V(1);  // shared predicate variable across patterns
  b.o = V(3);
  q.patterns = {a, b};
  query::NormalizeVariables(&q);
  double est = indep.EstimateCardinality(q);
  double triples = static_cast<double>(graph.num_triples());
  // t^2 / (nodes * predicates): one shared node var, one shared pred var.
  EXPECT_NEAR(est,
              triples * triples / (graph.num_nodes() *
                                   static_cast<double>(
                                       graph.num_predicates())),
              est * 1e-9);
}

}  // namespace
}  // namespace lmkg::baselines

