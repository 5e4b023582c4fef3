// Extension bench: correlation blindness of classical independence-based
// estimation — the failure mode that motivates LMKG (paper §I: predicate
// co-occurrence "can be quite common compared to other combinations —
// leading to an inaccurate estimate if independence is assumed"; §II on
// Jena ARQ: "assume independence between the attributes which leads to
// underestimations").
//
// Measures, per dataset and query size: avg q-error and the fraction of
// queries underestimated by >= 2x, for the Jena-ARQ-style independence
// estimator vs characteristic sets (which capture predicate co-occurrence
// for stars) vs LMKG-S.
#include <iostream>
#include <memory>
#include <vector>

#include "baselines/cset.h"
#include "core/lmkg.h"
#include "core/single_pattern.h"
#include "data/dataset.h"
#include "eval/suite.h"
#include "sampling/workload.h"
#include "util/flags.h"
#include "util/math.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace lmkg;

struct Score {
  double avg_qerror = 0.0;
  double under_2x_fraction = 0.0;
};

Score ScoreOf(core::CardinalityEstimator* estimator,
              const std::vector<sampling::LabeledQuery>& pool) {
  std::vector<double> qerrors;
  size_t under = 0;
  size_t used = 0;
  for (const auto& lq : pool) {
    if (!estimator->CanEstimate(lq.query)) continue;
    double est = estimator->EstimateCardinality(lq.query);
    qerrors.push_back(util::QError(est, lq.cardinality));
    if (est * 2.0 <= lq.cardinality) ++under;
    ++used;
  }
  Score s;
  s.avg_qerror = util::QErrorStats::Compute(std::move(qerrors)).mean;
  s.under_2x_fraction =
      used == 0 ? 0.0 : static_cast<double>(under) / used;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  eval::SuiteOptions options = eval::SuiteOptionsFromFlags(argc, argv);
  util::Flags flags(argc, argv);
  auto datasets = util::Split(flags.GetString("datasets", "swdf,lubm"), ',');
  const size_t per_pool = static_cast<size_t>(flags.GetInt("queries", 120));

  std::cout << "Extension: independence-assumption blindness (scale="
            << options.dataset_scale << ")\n\n";

  for (const std::string& name : datasets) {
    rdf::Graph graph =
        data::MakeDataset(name, options.dataset_scale, options.seed);
    std::cerr << "[ext-baselines] " << name << ": "
              << rdf::GraphSummary(graph) << "\n";

    // Star pools: the shape where predicate correlation bites hardest
    // (characteristic sets were invented for exactly this).
    sampling::WorkloadGenerator generator(graph);
    std::vector<std::pair<std::string,
                          std::vector<sampling::LabeledQuery>>> pools;
    for (int size : {2, 3}) {
      sampling::WorkloadGenerator::Options wopts;
      wopts.topology = query::Topology::kStar;
      wopts.query_size = size;
      wopts.count = per_pool;
      wopts.max_cardinality = options.max_cardinality;
      wopts.seed = options.seed + size;
      pools.emplace_back("star-" + std::to_string(size),
                         generator.Generate(wopts));
    }

    core::IndependenceEstimator indep(graph);
    baselines::CsetEstimator cset(graph);
    std::unique_ptr<core::Lmkg> lmkg = eval::BuildLmkgS(graph, options);

    util::TablePrinter table(
        "avg q-error | fraction underestimated >= 2x — " + name);
    std::vector<std::string> header = {"estimator"};
    for (const auto& [label, pool] : pools) {
      header.push_back(label + " q-err");
      header.push_back(label + " under");
    }
    table.SetHeader(header);
    std::vector<core::CardinalityEstimator*> estimators = {&indep, &cset,
                                                           lmkg.get()};
    for (core::CardinalityEstimator* estimator : estimators) {
      std::vector<std::string> row = {estimator->name()};
      for (const auto& [label, pool] : pools) {
        Score s = ScoreOf(estimator, pool);
        row.push_back(util::FormatValue(s.avg_qerror));
        row.push_back(util::FormatValue(s.under_2x_fraction));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
    std::cout << "\n";
  }
  std::cout << "Expected shape: the independence estimator has the "
               "largest underestimation fraction (the paper's motivating "
               "failure); characteristic sets fix it for stars by storing "
               "co-occurrence; LMKG-S matches or beats cset while also "
               "covering chains.\n";
  return 0;
}
