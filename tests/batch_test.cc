// EstimateCardinalityBatch must be estimate-equivalent to the per-query
// path for every estimator in the repository: running a fresh estimator
// over a workload query-by-query and running an identically constructed
// one over the same workload through the batch API must produce
// bit-for-bit equal estimates. This pins down the whole batched pipeline
// — encoder batching, the multi-row NN kernels (whose per-row results
// must not depend on the batch they run in), the facade's grouped
// dispatch, and the RNG discipline of the sampling estimators.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "baselines/cset.h"
#include "baselines/impr.h"
#include "baselines/jsub.h"
#include "baselines/mscn.h"
#include "baselines/sumrdf.h"
#include "baselines/wander_join.h"
#include "core/adaptive.h"
#include "core/lmkg.h"
#include "core/lmkg_s.h"
#include "core/lmkg_u.h"
#include "core/outlier_buffer.h"
#include "core/single_pattern.h"
#include "encoding/query_encoder.h"
#include "sampling/workload.h"
#include "test_util.h"

namespace lmkg::core {
namespace {

using query::PatternTerm;
using query::Query;
using query::Topology;

PatternTerm B(rdf::TermId id) { return PatternTerm::Bound(id); }
PatternTerm V(int v) { return PatternTerm::Variable(v); }

std::vector<sampling::LabeledQuery> MakeWorkload(const rdf::Graph& graph,
                                                 Topology topology, int size,
                                                 size_t count,
                                                 uint64_t seed) {
  sampling::WorkloadGenerator generator(graph);
  sampling::WorkloadGenerator::Options options;
  options.topology = topology;
  options.query_size = size;
  options.count = count;
  options.seed = seed;
  return generator.Generate(options);
}

std::vector<Query> QueriesOf(
    const std::vector<sampling::LabeledQuery>& labeled) {
  std::vector<Query> queries;
  queries.reserve(labeled.size());
  for (const auto& lq : labeled) queries.push_back(lq.query);
  return queries;
}

// A ~200-query mixed star/chain workload every trained model group of the
// tests below can serve.
std::vector<Query> MixedWorkload(const rdf::Graph& graph, uint64_t seed) {
  std::vector<Query> queries;
  for (auto [topology, size] :
       {std::pair{Topology::kStar, 2}, {Topology::kChain, 2}}) {
    auto labeled = MakeWorkload(graph, topology, size, 100, seed++);
    auto batch = QueriesOf(labeled);
    queries.insert(queries.end(), batch.begin(), batch.end());
  }
  return queries;
}

// `sequential` and `batched` must be identically constructed fresh
// instances (same seeds, same training) — stateful estimators advance
// their RNG per estimate, so the two paths are compared on equal streams.
void ExpectBatchMatchesSequential(CardinalityEstimator* sequential,
                                  CardinalityEstimator* batched,
                                  const std::vector<Query>& queries) {
  ASSERT_FALSE(queries.empty());
  std::vector<double> expected;
  expected.reserve(queries.size());
  for (const Query& q : queries) {
    ASSERT_TRUE(sequential->CanEstimate(q));
    expected.push_back(sequential->EstimateCardinality(q));
  }
  std::vector<double> got(queries.size(), -1.0);
  batched->EstimateCardinalityBatch(queries, got);
  for (size_t i = 0; i < queries.size(); ++i)
    ASSERT_EQ(expected[i], got[i])
        << "query " << i << ": " << query::QueryToString(queries[i]);
}

class BatchEquivalenceTest : public ::testing::Test {
 protected:
  BatchEquivalenceTest()
      : graph_(lmkg::testing::MakeRandomGraph(40, 5, 500, 3)) {}

  LmkgSConfig SmallSConfig() {
    LmkgSConfig config;
    config.hidden_dim = 32;
    config.num_hidden_layers = 2;
    config.epochs = 8;
    config.dropout = 0.1;  // exercised at train time, identity at serve
    config.seed = 7;
    return config;
  }

  std::unique_ptr<LmkgS> TrainedLmkgS(
      const std::vector<sampling::LabeledQuery>& train) {
    auto model = std::make_unique<LmkgS>(
        encoding::MakeSgEncoder(graph_, 3, 2,
                                encoding::TermEncoding::kBinary),
        SmallSConfig());
    model->Train(train);
    return model;
  }

  rdf::Graph graph_;
};

TEST_F(BatchEquivalenceTest, LmkgSWithSgEncoder) {
  auto train = MakeWorkload(graph_, Topology::kStar, 2, 150, 11);
  auto chain_train = MakeWorkload(graph_, Topology::kChain, 2, 150, 12);
  train.insert(train.end(), chain_train.begin(), chain_train.end());
  auto sequential = TrainedLmkgS(train);
  auto batched = TrainedLmkgS(train);
  ExpectBatchMatchesSequential(sequential.get(), batched.get(),
                               MixedWorkload(graph_, 21));
}

TEST_F(BatchEquivalenceTest, LmkgSWithStarEncoder) {
  auto train = MakeWorkload(graph_, Topology::kStar, 2, 200, 13);
  auto make = [&] {
    auto model = std::make_unique<LmkgS>(
        encoding::MakeStarEncoder(graph_, 2,
                                  encoding::TermEncoding::kBinary),
        SmallSConfig());
    model->Train(train);
    return model;
  };
  auto sequential = make();
  auto batched = make();
  auto workload = QueriesOf(MakeWorkload(graph_, Topology::kStar, 2, 200, 22));
  ExpectBatchMatchesSequential(sequential.get(), batched.get(), workload);
}

TEST_F(BatchEquivalenceTest, LmkgU) {
  LmkgUConfig config;
  config.embedding_dim = 8;
  config.hidden_dim = 32;
  config.epochs = 2;
  config.train_samples = 800;
  config.sample_count = 12;
  config.seed = 5;
  auto make = [&] {
    auto model = std::make_unique<LmkgU>(graph_, Topology::kStar, 2, config);
    model->Train();
    return model;
  };
  auto sequential = make();
  auto batched = make();
  auto workload = QueriesOf(MakeWorkload(graph_, Topology::kStar, 2, 200, 23));
  ExpectBatchMatchesSequential(sequential.get(), batched.get(), workload);
}

TEST_F(BatchEquivalenceTest, SinglePattern) {
  std::vector<Query> workload;
  util::Pcg32 rng(31);
  while (workload.size() < 200) {
    Query q;
    int next_var = 0;
    auto term = [&](uint32_t domain) {
      if (rng.Bernoulli(0.5)) return B(1 + rng.UniformInt(domain));
      return V(next_var++);
    };
    query::TriplePattern t;
    t.s = term(40);
    t.p = term(5);
    t.o = term(40);
    q.patterns.push_back(t);
    query::NormalizeVariables(&q);
    if (q.Valid()) workload.push_back(std::move(q));
  }
  SinglePatternEstimator sequential(graph_);
  SinglePatternEstimator batched(graph_);
  ExpectBatchMatchesSequential(&sequential, &batched, workload);
}

TEST_F(BatchEquivalenceTest, LmkgFacadeSupervisedWithMixedDispatch) {
  LmkgConfig config;
  config.kind = ModelKind::kSupervised;
  config.query_sizes = {2, 3};
  config.s_config = SmallSConfig();
  config.train_queries_per_combo = 100;
  config.seed = 3;
  auto make = [&] {
    auto lmkg = std::make_unique<Lmkg>(graph_, config);
    lmkg->BuildModels();
    return lmkg;
  };
  auto sequential = make();
  auto batched = make();

  // Mixed dispatch: model-served stars/chains, exact size-1 lookups, and
  // a size-4 chain that goes through decomposition.
  std::vector<Query> workload = MixedWorkload(graph_, 41);
  auto more = QueriesOf(MakeWorkload(graph_, Topology::kChain, 4, 20, 42));
  workload.insert(workload.end(), more.begin(), more.end());
  Query single;
  single.patterns.push_back({B(1), B(1), V(0)});
  query::NormalizeVariables(&single);
  workload.push_back(single);
  ExpectBatchMatchesSequential(sequential.get(), batched.get(), workload);
}

TEST_F(BatchEquivalenceTest, LmkgFacadeUnsupervised) {
  LmkgConfig config;
  config.kind = ModelKind::kUnsupervised;
  config.query_sizes = {2};
  config.u_config.embedding_dim = 8;
  config.u_config.hidden_dim = 32;
  config.u_config.epochs = 1;
  config.u_config.train_samples = 500;
  config.u_config.sample_count = 8;
  config.seed = 9;
  auto make = [&] {
    auto lmkg = std::make_unique<Lmkg>(graph_, config);
    lmkg->BuildModels();
    return lmkg;
  };
  auto sequential = make();
  auto batched = make();
  // Star/chain queries within capacity: the grouped dispatch preserves
  // each (stateful) LMKG-U model's query order exactly.
  ExpectBatchMatchesSequential(sequential.get(), batched.get(),
                               MixedWorkload(graph_, 43));

  // A batch containing a decomposed query must also match: the facade
  // falls back to the strict per-query loop so the decomposition's
  // sub-queries (two size-2 stars here, served by the stateful star-2
  // model) consume the models' RNG streams in input order.
  std::vector<Query> mixed = MixedWorkload(graph_, 48);
  mixed.resize(20);
  Query double_star;
  double_star.patterns.push_back({V(0), B(1), V(1)});
  double_star.patterns.push_back({V(0), B(2), V(2)});
  double_star.patterns.push_back({V(3), B(1), V(4)});
  double_star.patterns.push_back({V(3), B(2), V(5)});
  query::NormalizeVariables(&double_star);
  mixed.insert(mixed.begin() + 10, double_star);
  ExpectBatchMatchesSequential(sequential.get(), batched.get(), mixed);
}

TEST_F(BatchEquivalenceTest, OutlierBufferForwardsOnlyMisses) {
  auto train = MakeWorkload(graph_, Topology::kStar, 2, 150, 14);
  auto chain_train = MakeWorkload(graph_, Topology::kChain, 2, 150, 15);
  train.insert(train.end(), chain_train.begin(), chain_train.end());
  auto inner_sequential = TrainedLmkgS(train);
  auto inner_batched = TrainedLmkgS(train);
  OutlierBuffer sequential(inner_sequential.get(), 50);
  OutlierBuffer batched(inner_batched.get(), 50);
  sequential.Populate(train);
  batched.Populate(train);
  ASSERT_GT(sequential.buffered(), 0u);

  // Half buffered training queries (hits), half fresh ones (misses).
  std::vector<Query> workload;
  for (size_t i = 0; i < 100 && i < train.size(); ++i)
    workload.push_back(train[i].query);
  auto misses = MixedWorkload(graph_, 44);
  workload.insert(workload.end(), misses.begin(), misses.end());
  ExpectBatchMatchesSequential(&sequential, &batched, workload);
}

TEST_F(BatchEquivalenceTest, AdaptiveLmkgWithFallback) {
  AdaptiveLmkgConfig config;
  config.s_config = SmallSConfig();
  config.train_queries = 100;
  config.seed = 6;
  auto make = [&] { return std::make_unique<AdaptiveLmkg>(graph_, config); };
  auto sequential = make();
  auto batched = make();

  std::vector<Query> workload = MixedWorkload(graph_, 45);
  // A composite 2-pattern query (object-object join) has no model and no
  // specialized combo: exercises the independence fallback.
  Query composite;
  composite.patterns.push_back({V(0), B(1), V(2)});
  composite.patterns.push_back({V(1), B(2), V(2)});
  query::NormalizeVariables(&composite);
  workload.push_back(composite);
  Query single;
  single.patterns.push_back({V(0), B(1), V(1)});
  query::NormalizeVariables(&single);
  workload.push_back(single);
  ExpectBatchMatchesSequential(sequential.get(), batched.get(), workload);
  // Both paths observed the same stream.
  EXPECT_EQ(sequential->monitor().observations(),
            batched->monitor().observations());
}

TEST_F(BatchEquivalenceTest, Mscn) {
  auto train = MakeWorkload(graph_, Topology::kStar, 2, 150, 16);
  auto chain_train = MakeWorkload(graph_, Topology::kChain, 2, 150, 17);
  train.insert(train.end(), chain_train.begin(), chain_train.end());
  baselines::MscnConfig config;
  config.hidden_dim = 32;
  config.epochs = 5;
  config.seed = 2;
  auto make = [&] {
    auto model = std::make_unique<baselines::MscnEstimator>(graph_, config);
    model->Train(train);
    return model;
  };
  auto sequential = make();
  auto batched = make();
  ExpectBatchMatchesSequential(sequential.get(), batched.get(),
                               MixedWorkload(graph_, 46));
}

// The sampling and synopsis baselines keep the base-class loop fallback;
// the batch API must still match per-query estimation exactly, including
// for the stateful random-walk estimators (equal RNG streams).
TEST_F(BatchEquivalenceTest, BaselinesViaFallback) {
  auto workload = MixedWorkload(graph_, 47);
  {
    baselines::CsetEstimator sequential(graph_);
    baselines::CsetEstimator batched(graph_);
    std::vector<Query> stars;
    for (const Query& q : workload)
      if (sequential.CanEstimate(q)) stars.push_back(q);
    ASSERT_FALSE(stars.empty());
    ExpectBatchMatchesSequential(&sequential, &batched, stars);
  }
  {
    core::IndependenceEstimator sequential(graph_);
    core::IndependenceEstimator batched(graph_);
    ExpectBatchMatchesSequential(&sequential, &batched, workload);
  }
  {
    baselines::SumRdfEstimator sequential(graph_);
    baselines::SumRdfEstimator batched(graph_);
    std::vector<Query> supported;
    for (const Query& q : workload)
      if (sequential.CanEstimate(q)) supported.push_back(q);
    ASSERT_FALSE(supported.empty());
    ExpectBatchMatchesSequential(&sequential, &batched, supported);
  }
  {
    baselines::WanderJoinEstimator::Options options;
    options.num_walks = 50;
    baselines::WanderJoinEstimator sequential(graph_, options);
    baselines::WanderJoinEstimator batched(graph_, options);
    ExpectBatchMatchesSequential(&sequential, &batched, workload);
  }
  {
    baselines::JsubEstimator::Options options;
    options.num_walks = 50;
    baselines::JsubEstimator sequential(graph_, options);
    baselines::JsubEstimator batched(graph_, options);
    ExpectBatchMatchesSequential(&sequential, &batched, workload);
  }
  {
    baselines::ImprEstimator::Options options;
    options.num_walks = 50;
    baselines::ImprEstimator sequential(graph_, options);
    baselines::ImprEstimator batched(graph_, options);
    ExpectBatchMatchesSequential(&sequential, &batched, workload);
  }
}

}  // namespace
}  // namespace lmkg::core
