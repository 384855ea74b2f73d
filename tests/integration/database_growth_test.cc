// Extension test for the paper's §8 future-work item: prediction on an
// expanding database. As writes accumulate (a larger scale factor), a
// Contender deployment re-profiles the templates — isolated runs only,
// constant-time per template — and its predictions track the grown
// database.

#include <cmath>

#include <gtest/gtest.h>

#include "core/predictor.h"
#include "math/metrics.h"
#include "util/logging.h"
#include "workload/sampler.h"
#include "workload/steady_state.h"

namespace contender {
namespace {

TEST(DatabaseGrowthTest, CatalogScalesAsDocumented) {
  Catalog base = Catalog::TpcDs(100.0);
  Catalog grown = Catalog::TpcDs(130.0);
  // Fact tables grow linearly.
  EXPECT_NEAR(grown.Get("store_sales").bytes,
              1.3 * base.Get("store_sales").bytes, 1.0);
  // Entity dimensions grow sublinearly.
  EXPECT_NEAR(grown.Get("customer").bytes,
              std::sqrt(1.3) * base.Get("customer").bytes, 1e3);
  // Static dimensions do not grow.
  EXPECT_DOUBLE_EQ(grown.Get("date_dim").bytes, base.Get("date_dim").bytes);
  // SF=100 reduces to the base catalog.
  EXPECT_DOUBLE_EQ(Catalog::TpcDs(100.0).Get("web_sales").bytes,
                   Catalog::TpcDs100().Get("web_sales").bytes);
}

TEST(DatabaseGrowthTest, IsolatedLatencyGrowsWithDatabase) {
  Workload base(Catalog::TpcDs(100.0), MakePaperTemplates());
  Workload grown(Catalog::TpcDs(140.0), MakePaperTemplates());
  sim::SimConfig machine;
  WorkloadSampler::Options opts;
  WorkloadSampler base_sampler(&base, machine, opts);
  WorkloadSampler grown_sampler(&grown, machine, opts);
  // An I/O-bound template's isolated latency tracks the fact growth.
  const int idx = base.IndexOfId(71);
  auto p0 = base_sampler.ProfileTemplate(idx);
  auto p1 = grown_sampler.ProfileTemplate(idx);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  const double ratio = p1->isolated_latency / p0->isolated_latency;
  EXPECT_GT(ratio, 1.25);
  EXPECT_LT(ratio, 1.45);
}

// Re-profiling on the grown database (isolated + spoiler runs, no mix
// sampling) keeps concurrent predictions accurate: the QS models learned
// on the old database transfer because the continuum normalization
// absorbs the scale change.
TEST(DatabaseGrowthTest, RetrainedProfilesKeepPredictionsAccurate) {
  sim::SimConfig machine;
  Workload grown(Catalog::TpcDs(125.0), MakePaperTemplates());
  WorkloadSampler::Options opts;
  opts.mpls = {2};
  opts.lhs_runs = 2;
  WorkloadSampler sampler(&grown, machine, opts);
  auto data = sampler.CollectAll();
  ASSERT_TRUE(data.ok()) << data.status();

  ContenderPredictor::Options popts;
  popts.mpls = {2};
  auto predictor = ContenderPredictor::Train(
      data->profiles, data->scan_times, data->observations, popts);
  ASSERT_TRUE(predictor.ok()) << predictor.status();

  std::vector<double> observed, predicted;
  for (const MixObservation& o : data->observations) {
    auto pred = predictor->PredictKnown(o.primary_index,
                                        o.concurrent_indices);
    if (!pred.ok()) continue;
    observed.push_back(o.latency.value());
    predicted.push_back(pred->value());
  }
  ASSERT_GT(observed.size(), 300u);
  // Accuracy on the grown database matches the SF=100 results.
  EXPECT_LT(MeanRelativeError(observed, predicted), 0.25);
}

}  // namespace
}  // namespace contender
