// Unit tests for the DP join enumerator. The contracts under test:
//   * optimality: DP left-deep equals an exhaustive left-deep reference
//     on small BGPs, and bushy never costs more than left-deep;
//   * determinism: memo on/off and batched/serial pricing choose
//     bit-identical plans with a deterministic source;
//   * structure: every emitted tree partitions the query's patterns;
//   * fallbacks: greedy above dp_max_patterns, cross-product bridging
//     for disconnected BGPs.
#include "planner/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "core/single_pattern.h"
#include "query/fingerprint.h"
#include "query/query.h"
#include "test_util.h"

namespace lmkg::planner {
namespace {

using query::PatternTerm;
using query::Query;
using query::TriplePattern;

// Deterministic synthetic source: the cardinality of a sub-BGP is a pure
// function of its canonical fingerprint, so isomorphic materializations
// agree, repeated calls agree, and costs are varied enough to make join
// orders genuinely differ.
class HashSource : public CardinalitySource {
 public:
  double EstimateOne(const Query& q) override {
    ++calls;
    const query::Fingerprint fp = query::ComputeFingerprint(q, &scratch_);
    return static_cast<double>(fp.lo % 99991);
  }
  size_t calls = 0;

 private:
  query::FingerprintScratch scratch_;
};

Query Star(int arity) {
  std::vector<std::pair<PatternTerm, PatternTerm>> pairs;
  for (int i = 0; i < arity; ++i)
    pairs.push_back({PatternTerm::Bound(static_cast<rdf::TermId>(10 + i)),
                     PatternTerm::Variable(1 + i)});
  return query::MakeStarQuery(PatternTerm::Variable(0), pairs);
}

Query Chain(int length) {
  std::vector<PatternTerm> nodes;
  std::vector<PatternTerm> predicates;
  for (int i = 0; i <= length; ++i) nodes.push_back(PatternTerm::Variable(i));
  for (int i = 0; i < length; ++i)
    predicates.push_back(PatternTerm::Bound(static_cast<rdf::TermId>(20 + i)));
  return query::MakeChainQuery(nodes, predicates);
}

// var 0 --p--> var 1 --p--> var 2, plus var 1 --p--> var 3: a branching
// composite (neither star nor chain).
Query Branching() {
  Query q;
  q.patterns.push_back({PatternTerm::Variable(0), PatternTerm::Bound(31),
                        PatternTerm::Variable(1)});
  q.patterns.push_back({PatternTerm::Variable(1), PatternTerm::Bound(32),
                        PatternTerm::Variable(2)});
  q.patterns.push_back({PatternTerm::Variable(1), PatternTerm::Bound(33),
                        PatternTerm::Variable(3)});
  q.patterns.push_back({PatternTerm::Variable(2), PatternTerm::Bound(34),
                        PatternTerm::Variable(4)});
  q.num_vars = 5;
  return q;
}

std::vector<Query> TestQueries() {
  return {Star(2), Star(3), Star(5), Chain(2), Chain(3), Chain(5),
          Branching()};
}

// Checks that the tree under `index` is a partition of exactly `mask`.
void CheckSubtree(const Plan& plan, int index, uint64_t mask) {
  const PlanNode& node = plan.nodes[index];
  EXPECT_EQ(node.mask, mask);
  if (node.pattern >= 0) {
    EXPECT_EQ(mask, uint64_t{1} << node.pattern);
    EXPECT_EQ(node.left, -1);
    EXPECT_EQ(node.right, -1);
    return;
  }
  ASSERT_GE(node.left, 0);
  ASSERT_GE(node.right, 0);
  const uint64_t left = plan.nodes[node.left].mask;
  const uint64_t right = plan.nodes[node.right].mask;
  EXPECT_EQ(left & right, 0u) << "overlapping children";
  EXPECT_EQ(left | right, mask) << "children do not cover the node";
  CheckSubtree(plan, node.left, left);
  CheckSubtree(plan, node.right, right);
}

void CheckValid(const Plan& plan, size_t num_patterns) {
  ASSERT_TRUE(plan.valid());
  const uint64_t full = num_patterns == 64
                            ? ~uint64_t{0}
                            : (uint64_t{1} << num_patterns) - 1;
  CheckSubtree(plan, plan.root, full);
}

// Exhaustive left-deep reference: minimum over all pattern permutations
// whose every prefix is connected of sum_{k>=2} card(prefix). Uses the
// same source and the same adjacency notion as the planner.
double ExhaustiveLeftDeep(const Query& q, CardinalitySource* source) {
  const int n = static_cast<int>(q.patterns.size());
  std::vector<int> perm(n);
  for (int i = 0; i < n; ++i) perm[i] = i;
  std::vector<int> var_map;
  Query sub;
  double best = std::numeric_limits<double>::infinity();
  do {
    double cost = 0.0;
    uint64_t mask = uint64_t{1} << perm[0];
    bool connected = true;
    for (int k = 1; k < n; ++k) {
      // The next pattern must join the prefix: materialize the prefix
      // WITH it and check the planner's notion via variable/bound-node
      // sharing — reuse MaterializeSubquery + a shared-term scan.
      const Query& next = q;
      bool joins = false;
      for (uint64_t rest = mask; rest != 0 && !joins; rest &= rest - 1) {
        const int i = std::countr_zero(rest);
        const auto& a = next.patterns[i];
        const auto& b = next.patterns[perm[k]];
        auto nj = [](const PatternTerm& x, const PatternTerm& y) {
          if (x.is_var() && y.is_var()) return x.var == y.var;
          if (x.bound() && y.bound()) return x.value == y.value;
          return false;
        };
        joins = nj(a.s, b.s) || nj(a.s, b.o) || nj(a.o, b.s) ||
                nj(a.o, b.o) ||
                (a.p.is_var() && b.p.is_var() && a.p.var == b.p.var);
      }
      if (!joins) {
        connected = false;
        break;
      }
      mask |= uint64_t{1} << perm[k];
      MaterializeSubquery(q, mask, &var_map, &sub);
      cost += source->EstimateOne(sub);
    }
    if (connected) best = std::min(best, cost);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(PlannerTest, LeftDeepDpMatchesExhaustiveReference) {
  for (const Query& q : TestQueries()) {
    HashSource source;
    PlannerConfig config;
    config.bushy = false;
    JoinPlanner planner(&source, config);
    const Plan& plan = planner.PlanQuery(q);
    CheckValid(plan, q.patterns.size());
    EXPECT_FALSE(plan.used_greedy);
    HashSource reference;
    EXPECT_DOUBLE_EQ(plan.cost, ExhaustiveLeftDeep(q, &reference))
        << query::QueryToString(q);
  }
}

TEST(PlannerTest, BushyNeverCostsMoreThanLeftDeep) {
  for (const Query& q : TestQueries()) {
    HashSource source;
    PlannerConfig bushy;
    bushy.bushy = true;
    PlannerConfig left_deep;
    left_deep.bushy = false;
    JoinPlanner bushy_planner(&source, bushy);
    JoinPlanner ld_planner(&source, left_deep);
    const double bushy_cost = bushy_planner.PlanQuery(q).cost;
    const double ld_cost = ld_planner.PlanQuery(q).cost;
    EXPECT_LE(bushy_cost, ld_cost) << query::QueryToString(q);
  }
}

TEST(PlannerTest, MemoOnAndOffChooseIdenticalPlans) {
  for (const Query& q : TestQueries()) {
    HashSource source;
    PlannerConfig with_memo;
    with_memo.use_memo = true;
    PlannerConfig without_memo;
    without_memo.use_memo = false;
    JoinPlanner memo_planner(&source, with_memo);
    JoinPlanner plain_planner(&source, without_memo);
    // Two memoized rounds: the second is served fully from the memo and
    // must still equal the unmemoized plan bit for bit.
    memo_planner.PlanQuery(q);
    const Plan& memoized = memo_planner.PlanQuery(q);
    EXPECT_EQ(memoized.subplans_priced, 0u);
    EXPECT_EQ(memoized.memo_hits, memoized.subplans_considered);
    const Plan& plain = plain_planner.PlanQuery(q);
    ASSERT_EQ(memoized.nodes.size(), plain.nodes.size());
    EXPECT_EQ(memoized.cost, plain.cost);  // bitwise, not approximate
    for (size_t i = 0; i < memoized.nodes.size(); ++i) {
      EXPECT_EQ(memoized.nodes[i].mask, plain.nodes[i].mask);
      EXPECT_EQ(memoized.nodes[i].cardinality, plain.nodes[i].cardinality);
    }
  }
}

TEST(PlannerTest, BatchedAndSerialPricingChooseIdenticalPlans) {
  // DirectSource over IndependenceEstimator: its batch entry point is
  // the serial loop, so any divergence would come from the planner's own
  // batched pipeline — which must not reorder or drop results.
  auto graph = lmkg::testing::MakeRandomGraph(60, 6, 700, 11);
  core::IndependenceEstimator independence(graph);
  for (const Query& q : TestQueries()) {
    DirectSource source(&independence);
    PlannerConfig batched;
    batched.batched_pricing = true;
    batched.max_pricing_batch = 3;  // force multiple chunks
    PlannerConfig serial;
    serial.batched_pricing = false;
    JoinPlanner batched_planner(&source, batched);
    JoinPlanner serial_planner(&source, serial);
    const Plan& a = batched_planner.PlanQuery(q);
    const double a_cost = a.cost;
    std::vector<PlanNode> a_nodes = a.nodes;
    const Plan& b = serial_planner.PlanQuery(q);
    EXPECT_EQ(a_cost, b.cost) << query::QueryToString(q);
    ASSERT_EQ(a_nodes.size(), b.nodes.size());
    for (size_t i = 0; i < a_nodes.size(); ++i) {
      EXPECT_EQ(a_nodes[i].mask, b.nodes[i].mask);
      EXPECT_EQ(a_nodes[i].cardinality, b.nodes[i].cardinality);
    }
  }
}

TEST(PlannerTest, GreedyFallbackAboveThreshold) {
  HashSource source;
  PlannerConfig config;
  config.dp_max_patterns = 3;
  JoinPlanner planner(&source, config);
  const Query q = Chain(5);  // 5 patterns > 3
  const Plan& plan = planner.PlanQuery(q);
  CheckValid(plan, q.patterns.size());
  EXPECT_TRUE(plan.used_greedy);
  EXPECT_GT(plan.subplans_priced, 0u);
  // Greedy left-deep: every internal node has a leaf right child.
  for (const PlanNode& node : plan.nodes) {
    if (node.pattern < 0) {
      EXPECT_GE(plan.nodes[node.right].pattern, 0);
    }
  }
}

TEST(PlannerTest, DisconnectedQueryBridgesComponents) {
  // Two 2-stars over disjoint variables: no join connects them, so the
  // plan must contain exactly one cross-product bridge whose cardinality
  // is the product of the component cardinalities.
  Query q;
  q.patterns.push_back({PatternTerm::Variable(0), PatternTerm::Bound(1),
                        PatternTerm::Variable(1)});
  q.patterns.push_back({PatternTerm::Variable(0), PatternTerm::Bound(2),
                        PatternTerm::Variable(2)});
  q.patterns.push_back({PatternTerm::Variable(3), PatternTerm::Bound(3),
                        PatternTerm::Variable(4)});
  q.patterns.push_back({PatternTerm::Variable(3), PatternTerm::Bound(4),
                        PatternTerm::Variable(5)});
  q.num_vars = 6;
  HashSource source;
  JoinPlanner planner(&source);
  const Plan& plan = planner.PlanQuery(q);
  CheckValid(plan, q.patterns.size());
  const PlanNode& root = plan.nodes[plan.root];
  EXPECT_EQ(root.mask, 0b1111u);
  const double left = plan.nodes[root.left].cardinality;
  const double right = plan.nodes[root.right].cardinality;
  EXPECT_DOUBLE_EQ(root.cardinality, left * right);
}

TEST(PlannerTest, SinglePatternPlansToALeaf) {
  HashSource source;
  JoinPlanner planner(&source);
  const Plan& plan = planner.PlanQuery(Star(1));
  CheckValid(plan, 1);
  EXPECT_EQ(plan.cost, 0.0);  // no internal nodes: nothing to decide
  EXPECT_EQ(plan.subplans_priced, 0u);
}

TEST(PlannerTest, MemoPersistsAcrossQueriesAndClears) {
  // A 3-star's lattice is a sub-lattice of the 5-star over the same
  // predicates, so planning the 5-star after the 3-star hits the memo
  // for the shared cells; ClearMemo forgets everything.
  HashSource source;
  JoinPlanner planner(&source);
  planner.PlanQuery(Star(3));
  const size_t calls_after_small = source.calls;
  const Plan& big = planner.PlanQuery(Star(5));
  EXPECT_GT(big.memo_hits, 0u);
  EXPECT_GT(source.calls, calls_after_small);
  planner.ClearMemo();
  const Plan& again = planner.PlanQuery(Star(5));
  EXPECT_EQ(again.memo_hits, 0u);
  EXPECT_EQ(again.subplans_priced, again.subplans_considered);
}

TEST(PlannerTest, PlanTrueCostSumsInternalNodesOnly) {
  HashSource source;
  JoinPlanner planner(&source);
  const Query q = Chain(3);
  const Plan& plan = planner.PlanQuery(q);
  HashSource oracle;
  const double true_cost = PlanTrueCost(q, plan, &oracle);
  // HashSource is deterministic, so the "true" cost under it equals the
  // plan's own cost — the wiring check, not a semantic one.
  EXPECT_DOUBLE_EQ(true_cost, plan.cost);
}

TEST(PlannerTest, PlanToStringRendersEveryLeaf) {
  HashSource source;
  JoinPlanner planner(&source);
  const Plan& plan = planner.PlanQuery(Chain(3));
  const std::string rendered = PlanToString(plan);
  for (const char* leaf : {"p0", "p1", "p2"})
    EXPECT_NE(rendered.find(leaf), std::string::npos) << rendered;
}

TEST(PlanMemoTest, InsertLookupClearAndGrowth) {
  PlanMemo memo(16);
  std::vector<query::Fingerprint> fps;
  for (uint64_t i = 0; i < 200; ++i)
    fps.push_back(query::Fingerprint{i * 0x9e3779b97f4a7c15ull, i + 1});
  for (size_t i = 0; i < fps.size(); ++i)
    memo.Insert(fps[i], static_cast<double>(i));
  EXPECT_EQ(memo.size(), fps.size());
  double value = -1.0;
  for (size_t i = 0; i < fps.size(); ++i) {
    ASSERT_TRUE(memo.Lookup(fps[i], &value));
    EXPECT_EQ(value, static_cast<double>(i));
  }
  EXPECT_FALSE(memo.Lookup(query::Fingerprint{123, 456}, &value));
  memo.Clear();
  EXPECT_EQ(memo.size(), 0u);
  for (const auto& fp : fps) EXPECT_FALSE(memo.Lookup(fp, &value));
  memo.Insert(fps[0], 7.0);  // reusable after clear
  ASSERT_TRUE(memo.Lookup(fps[0], &value));
  EXPECT_EQ(value, 7.0);
}

}  // namespace
}  // namespace lmkg::planner
