#include "sched/mix_oracle.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_support.h"
#include "util/failpoint.h"

namespace contender::sched {
namespace {

using contender::testing::SharedPredictor;

TEST(MixOracleTest, EmptyMixIsIsolatedLatency) {
  MixOracle oracle(&SharedPredictor());
  for (int t = 0; t < oracle.num_templates(); ++t) {
    EXPECT_EQ(oracle.PredictInMix(t, {}), oracle.IsolatedLatency(t));
  }
}

TEST(MixOracleTest, MatchesPredictInMixUncachedBitExact) {
  const ContenderPredictor& predictor = SharedPredictor();
  MixOracle oracle(&predictor);
  const int n = oracle.num_templates();
  // Every template against several mixes at MPL 2-4.
  for (int t = 0; t < n; ++t) {
    const std::vector<std::vector<int>> mixes = {
        {(t + 1) % n},
        {(t + 1) % n, (t + 5) % n},
        {(t + 3) % n, (t + 7) % n, (t + 11) % n},
    };
    for (const auto& mix : mixes) {
      EXPECT_EQ(oracle.PredictInMix(t, mix),
                PredictInMixUncached(predictor, t, mix));
    }
  }
  // Every probe is one evaluation: there is no memo to answer repeats.
  EXPECT_EQ(oracle.evaluations(), static_cast<uint64_t>(3 * n));
  EXPECT_EQ(oracle.hits(), 0u);
  EXPECT_EQ(oracle.misses(), oracle.evaluations());
}

TEST(MixOracleTest, PermutedMixesAreBitIdentical) {
  MixOracle oracle(&SharedPredictor());
  const std::vector<int> mix = {4, 1, 9};
  const std::vector<std::vector<int>> permutations = {
      {4, 1, 9}, {1, 4, 9}, {9, 4, 1}, {1, 9, 4}};
  const units::Seconds expected = oracle.PredictInMix(0, mix);
  for (const auto& perm : permutations) {
    // The oracle canonicalizes before evaluating, so every ordering of the
    // multiset answers identically.
    EXPECT_EQ(oracle.PredictInMix(0, perm), expected);
  }
}

TEST(MixOracleTest, UncoveredMplFallsBackToIsolated) {
  MixOracle oracle(&SharedPredictor());
  // Reference and transfer models cover MPL 2-5; a 5-partner mix is MPL 6.
  const std::vector<int> mix = {1, 2, 3, 4, 5};
  EXPECT_EQ(oracle.PredictInMix(0, mix), oracle.IsolatedLatency(0));
  EXPECT_EQ(oracle.fallbacks(), 1u);
}

// A controllable health signal for degradation tests.
class StubHealth : public TemplateHealth {
 public:
  bool Degraded(int template_index) const override {
    for (int d : degraded) {
      if (d == template_index) return true;
    }
    return false;
  }
  std::vector<int> degraded;
};

TEST(MixOracleTest, OpenBreakerStartsTheLadderAtTransferredQs) {
  StubHealth health;
  MixOracle::Options options;
  options.health = &health;
  const ContenderPredictor& predictor = SharedPredictor();
  MixOracle oracle(&predictor, options);
  const std::vector<int> mix = {2, 1};

  const units::Seconds model_answer = oracle.PredictInMix(0, mix);
  EXPECT_EQ(model_answer, predictor.PredictInMix(0, mix).latency);
  EXPECT_EQ(oracle.degradations(), 0u);

  // Breaker opens: the oracle answers with the ladder's tier-1 answer
  // instead of the quarantined full model...
  health.degraded = {0};
  const TieredPrediction transferred =
      predictor.PredictInMix(0, mix, /*allow_full_model=*/false);
  ASSERT_EQ(transferred.tier, DegradationTier::kTransferredQs);
  EXPECT_EQ(oracle.PredictInMix(0, mix), transferred.latency);
  EXPECT_NE(oracle.PredictInMix(0, mix), model_answer);
  EXPECT_EQ(oracle.degradations(), 2u);
  EXPECT_EQ(oracle.evaluations(), 1u);
  EXPECT_EQ(oracle.fallbacks(), 0u);
  EXPECT_TRUE(oracle.Degraded(0));
  EXPECT_FALSE(oracle.Degraded(1));
  // ...while a co-runner's open breaker leaves other templates at tier 0.
  EXPECT_EQ(oracle.PredictInMix(1, {0, 2}),
            predictor.PredictInMix(1, {0, 2}).latency);

  // Recovery immediately serves the full-model answer again.
  health.degraded = {};
  EXPECT_EQ(oracle.PredictInMix(0, mix), model_answer);
  EXPECT_FALSE(oracle.Degraded(0));
}

TEST(MixOracleTest, PredictFailPointForcesDegradation) {
  const ContenderPredictor& predictor = SharedPredictor();
  MixOracle oracle(&predictor);
  auto& registry = FailPointRegistry::Global();
  const std::vector<int> mix = {3, 4};
  const units::Seconds model_answer = oracle.PredictInMix(0, mix);

  // A fired full-model site drops the evaluation to the ladder's tier 1,
  // counted as a fallback.
  registry.ArmOnce("core.ladder.full_model");
  EXPECT_EQ(oracle.PredictInMix(0, mix),
            predictor.PredictInMix(0, mix, /*allow_full_model=*/false)
                .latency);
  EXPECT_EQ(oracle.fallbacks(), 1u);
  EXPECT_EQ(oracle.degradations(), 0u);
  registry.DisarmAll();

  EXPECT_EQ(oracle.PredictInMix(0, mix), model_answer);
  // Empty mixes short-circuit before the probe: isolated IS the answer.
  registry.ArmProbability("core.ladder.full_model", 1.0);
  EXPECT_EQ(oracle.PredictInMix(0, {}), oracle.IsolatedLatency(0));
  EXPECT_EQ(registry.Site("core.ladder.full_model").hits(), 0u);
  registry.DisarmAll();
}

TEST(MixOracleTest, ConcurrentProbesMatchSerialAnswers) {
  const ContenderPredictor& predictor = SharedPredictor();
  MixOracle serial(&predictor);
  MixOracle shared(&predictor);
  const int n = shared.num_templates();

  std::vector<units::Seconds> expected(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    expected[static_cast<size_t>(t)] =
        serial.PredictInMix(t, {(t + 1) % n, (t + 2) % n});
  }

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < 4; ++round) {
        for (int t = 0; t < n; ++t) {
          const units::Seconds got =
              shared.PredictInMix(t, {(t + 1) % n, (t + 2) % n});
          if (got != expected[static_cast<size_t>(t)]) ++mismatches[w];
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int w = 0; w < kThreads; ++w) EXPECT_EQ(mismatches[w], 0);
  EXPECT_EQ(shared.evaluations(), static_cast<uint64_t>(kThreads * 4 * n));
}

}  // namespace
}  // namespace contender::sched
