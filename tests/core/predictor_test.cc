#include "core/predictor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "math/metrics.h"
#include "test_support.h"

namespace contender {
namespace {

using testing::SharedPredictor;
using testing::SharedTrainingData;

TEST(PredictorTest, TrainBuildsModelsAtEveryMpl) {
  const ContenderPredictor& p = SharedPredictor();
  for (int mpl : {2, 3, 4, 5}) {
    auto models = p.ReferenceModels(units::Mpl(mpl));
    ASSERT_TRUE(models.ok());
    EXPECT_EQ(models->size(), 25u);
    EXPECT_TRUE(p.TransferModel(units::Mpl(mpl)).ok());
  }
  EXPECT_FALSE(p.ReferenceModels(units::Mpl(7)).ok());
  EXPECT_FALSE(p.TransferModel(units::Mpl(7)).ok());
}

TEST(PredictorTest, TrainRejectsTinyWorkload) {
  const TrainingData& data = SharedTrainingData();
  std::vector<TemplateProfile> few(data.profiles.begin(),
                                   data.profiles.begin() + 2);
  EXPECT_FALSE(ContenderPredictor::Train(few, data.scan_times,
                                         data.observations,
                                         ContenderPredictor::Options{})
                   .ok());
}

TEST(PredictorTest, KnownPredictionsAreReasonable) {
  const ContenderPredictor& p = SharedPredictor();
  const TrainingData& data = SharedTrainingData();
  std::vector<double> observed, predicted;
  for (const MixObservation& obs : data.observations) {
    if (obs.mpl != 2) continue;
    auto pred = p.PredictKnown(obs.primary_index, obs.concurrent_indices);
    if (!pred.ok()) continue;
    observed.push_back(obs.latency.value());
    predicted.push_back(pred->value());
  }
  ASSERT_GT(observed.size(), 500u);
  // In-sample MRE must be solidly below the paper's 19% known-template
  // figure; the simulator is cleaner than a production DBMS.
  EXPECT_LT(MeanRelativeError(observed, predicted), 0.19);
}

TEST(PredictorTest, PredictionsRespondToContention) {
  const ContenderPredictor& p = SharedPredictor();
  const TrainingData& data = SharedTrainingData();
  const Workload& w = testing::PaperWorkload();
  // q71 (I/O-bound): an I/O-hungry disjoint partner (q27, store_sales is
  // shared though... use q22's index: inventory+cpu, low I/O) should hurt
  // less than a fully competing disjoint partner.
  const int q71 = w.IndexOfId(71);
  const int q22 = w.IndexOfId(22);
  const int q17 = w.IndexOfId(17);  // random I/O heavy, mostly disjoint
  auto light = p.PredictKnown(q71, {q22});
  auto heavy = p.PredictKnown(q71, {q17});
  ASSERT_TRUE(light.ok());
  ASSERT_TRUE(heavy.ok());
  EXPECT_LT(light->value(), heavy->value());
  // Both exceed isolation.
  EXPECT_GT(light->value(),
            data.profiles[static_cast<size_t>(q71)].isolated_latency.value() *
                0.9);
}

TEST(PredictorTest, SharedScanPartnerPredictedFasterThanDisjoint) {
  const ContenderPredictor& p = SharedPredictor();
  const Workload& w = testing::PaperWorkload();
  const int q26 = w.IndexOfId(26);  // catalog_sales only
  const int q20 = w.IndexOfId(20);  // catalog_sales only (shares scan)
  const int q27 = w.IndexOfId(27);  // store_sales (disjoint)
  auto shared = p.PredictKnown(q26, {q20});
  auto disjoint = p.PredictKnown(q26, {q27});
  ASSERT_TRUE(shared.ok());
  ASSERT_TRUE(disjoint.ok());
  EXPECT_LT(shared->value(), disjoint->value());
}

TEST(PredictorTest, PredictKnownValidatesArguments) {
  const ContenderPredictor& p = SharedPredictor();
  EXPECT_FALSE(p.PredictKnown(-1, {0}).ok());
  EXPECT_FALSE(p.PredictKnown(999, {0}).ok());
  EXPECT_FALSE(p.PredictKnown(0, {999}).ok());
  // MPL 7 has no reference models.
  EXPECT_FALSE(p.PredictKnown(0, {1, 2, 3, 4, 5, 6}).ok());
}

TEST(PredictorTest, PredictNewWithMeasuredSpoiler) {
  const ContenderPredictor& p = SharedPredictor();
  const TrainingData& data = SharedTrainingData();
  // Treat q26's profile as a "new" template.
  const TemplateProfile& profile = testing::ProfileById(data, 26);
  auto pred = p.PredictNew(profile, {0, 1, 2}, SpoilerSource::kMeasured);
  ASSERT_TRUE(pred.ok());
  EXPECT_GT(pred->value(), 0.5 * profile.isolated_latency.value());
  EXPECT_LT(pred->value(), 1.2 * profile.spoiler_latency.at(4).value());
}

TEST(PredictorTest, PredictNewWithKnnSpoiler) {
  const ContenderPredictor& p = SharedPredictor();
  const TrainingData& data = SharedTrainingData();
  TemplateProfile profile = testing::ProfileById(data, 26);
  profile.spoiler_latency.clear();  // constant-time path needs none
  auto pred = p.PredictNew(profile, {0, 1}, SpoilerSource::kKnnPredicted);
  ASSERT_TRUE(pred.ok());
  EXPECT_GT(pred->value(), 0.0);
  // Measured path fails without spoiler latencies.
  EXPECT_FALSE(p.PredictNew(profile, {0, 1}, SpoilerSource::kMeasured).ok());
}

TEST(PredictorTest, KnnSpoilerPredictionTracksMeasured) {
  const ContenderPredictor& p = SharedPredictor();
  const TrainingData& data = SharedTrainingData();
  std::vector<double> observed, predicted;
  for (const TemplateProfile& profile : data.profiles) {
    for (int mpl : {2, 3, 4, 5}) {
      auto pred = p.PredictSpoilerLatency(profile, units::Mpl(mpl));
      ASSERT_TRUE(pred.ok());
      observed.push_back(profile.spoiler_latency.at(mpl).value());
      predicted.push_back(pred->value());
    }
  }
  // In-sample: the template itself is among the KNN references, so error
  // stays moderate.
  EXPECT_LT(MeanRelativeError(observed, predicted), 0.35);
}

TEST(PredictorTest, UnknownYVariantUsesOwnSlope) {
  const ContenderPredictor& p = SharedPredictor();
  const TrainingData& data = SharedTrainingData();
  const Workload& w = testing::PaperWorkload();
  const int q26 = w.IndexOfId(26);
  auto models = p.ReferenceModels(units::Mpl(2));
  ASSERT_TRUE(models.ok());
  const double own_slope = models->at(q26).slope;
  const TemplateProfile& profile = testing::ProfileById(data, 26);
  auto pred = p.PredictNewWithKnownSlope(profile, {0}, own_slope,
                                         SpoilerSource::kMeasured);
  ASSERT_TRUE(pred.ok());
  EXPECT_GT(pred->value(), 0.0);
}

// ---- The degradation ladder (PredictInMix). ----------------------------

// Unsorted mixes at MPL 2-4 around template `t` of an `n`-template workload.
std::vector<std::vector<int>> LadderMixes(int t, int n) {
  return {{(t + 7) % n},
          {(t + 9) % n, (t + 2) % n},
          {(t + 11) % n, (t + 3) % n, (t + 1) % n}};
}

std::vector<int> Sorted(std::vector<int> mix) {
  std::sort(mix.begin(), mix.end());
  return mix;
}

TEST(PredictorLadderTest, Tier0IsPredictKnownOnTheSortedMix) {
  const ContenderPredictor& p = SharedPredictor();
  const int n = static_cast<int>(p.profiles().size());
  for (int t = 0; t < n; ++t) {
    for (const std::vector<int>& mix : LadderMixes(t, n)) {
      const TieredPrediction answer = p.PredictInMix(t, mix);
      auto known = p.PredictKnown(t, Sorted(mix));
      ASSERT_TRUE(known.ok()) << known.status();
      EXPECT_EQ(answer.tier, DegradationTier::kFullModel) << "template " << t;
      EXPECT_EQ(answer.latency, *known) << "template " << t;
    }
  }
}

TEST(PredictorLadderTest, DisallowedFullModelAnswersTransferredQs) {
  const ContenderPredictor& p = SharedPredictor();
  const int n = static_cast<int>(p.profiles().size());
  for (int t = 0; t < n; ++t) {
    for (const std::vector<int>& mix : LadderMixes(t, n)) {
      const TieredPrediction answer =
          p.PredictInMix(t, mix, /*allow_full_model=*/false);
      auto transferred =
          p.PredictNew(p.profiles()[static_cast<size_t>(t)], Sorted(mix),
                       SpoilerSource::kKnnPredicted);
      ASSERT_TRUE(transferred.ok()) << transferred.status();
      EXPECT_EQ(answer.tier, DegradationTier::kTransferredQs)
          << "template " << t;
      EXPECT_EQ(answer.latency, *transferred) << "template " << t;
    }
  }
}

TEST(PredictorLadderTest, TemplateWithoutAModelAnswersTransferredQs) {
  constexpr int kNovel = 4;
  const ContenderPredictor p = testing::TrainWithoutModelsFor({kNovel});
  const int n = static_cast<int>(p.profiles().size());
  for (int mpl : {2, 3, 4, 5}) {
    auto models = p.ReferenceModels(units::Mpl(mpl));
    ASSERT_TRUE(models.ok());
    ASSERT_EQ(models->count(kNovel), 0u) << "MPL " << mpl;
  }
  for (const std::vector<int>& mix : LadderMixes(kNovel, n)) {
    const TieredPrediction answer = p.PredictInMix(kNovel, mix);
    auto transferred =
        p.PredictNew(p.profiles()[kNovel], Sorted(mix),
                     SpoilerSource::kKnnPredicted);
    ASSERT_TRUE(transferred.ok()) << transferred.status();
    EXPECT_EQ(answer.tier, DegradationTier::kTransferredQs);
    EXPECT_EQ(answer.latency, *transferred);
    // Templates that kept their observations still answer from tier 0.
    EXPECT_EQ(p.PredictInMix((kNovel + 1) % n, mix).tier,
              DegradationTier::kFullModel);
  }
}

TEST(PredictorLadderTest, UntrainedMplAnswersIsolatedLatency) {
  const ContenderPredictor& p = SharedPredictor();
  const int n = static_cast<int>(p.profiles().size());
  for (int t = 0; t < n; ++t) {
    const units::Seconds isolated =
        p.profiles()[static_cast<size_t>(t)].isolated_latency;
    // Models and transfer models cover MPL 2-5; five partners is MPL 6.
    for (bool allow_full_model : {true, false}) {
      const TieredPrediction answer = p.PredictInMix(
          t, {(t + 1) % n, (t + 2) % n, (t + 3) % n, (t + 4) % n,
              (t + 5) % n},
          allow_full_model);
      EXPECT_EQ(answer.tier, DegradationTier::kIsolatedHeuristic);
      EXPECT_EQ(answer.latency, isolated);
    }
    // An empty mix is MPL 1: l_min is the model's own answer.
    const TieredPrediction alone = p.PredictInMix(t, {}, false);
    EXPECT_EQ(alone.tier, DegradationTier::kFullModel);
    EXPECT_EQ(alone.latency, isolated);
  }
}

// An out-of-range co-runner is a caller bug, like an out-of-range
// template: it must not come back as l_min at tier 2 (nor count as a
// MixOracle fallback).
TEST(PredictorLadderDeathTest, OutOfRangeCoRunnerDies) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const ContenderPredictor& p = SharedPredictor();
  EXPECT_DEATH((void)p.PredictInMix(0, {999}),
               "unknown co-runner index 999");
  EXPECT_DEATH((void)p.PredictInMix(0, {-5, 1}),
               "unknown co-runner index -5");
}

TEST(PredictorLadderTest, PermutedMixesAnswerBitIdentically) {
  const ContenderPredictor& p = SharedPredictor();
  const std::vector<std::vector<int>> permutations = {
      {4, 1, 9}, {1, 4, 9}, {9, 4, 1}, {1, 9, 4}, {9, 1, 4}, {4, 9, 1}};
  for (int t : {0, 6, 13, 24}) {
    for (bool allow_full_model : {true, false}) {
      const TieredPrediction expected =
          p.PredictInMix(t, permutations.front(), allow_full_model);
      for (const std::vector<int>& mix : permutations) {
        const TieredPrediction got = p.PredictInMix(t, mix, allow_full_model);
        EXPECT_EQ(got.latency, expected.latency) << "template " << t;
        EXPECT_EQ(got.tier, expected.tier) << "template " << t;
      }
    }
  }
}

}  // namespace
}  // namespace contender
