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
  // Reference models cover MPL 2-5; a 5-partner mix is MPL 6.
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

TEST(MixOracleTest, OpenBreakerDegradesToIsolatedWithoutCaching) {
  StubHealth health;
  MixOracle::Options options;
  options.health = &health;
  MixOracle oracle(&SharedPredictor(), options);
  const std::vector<int> mix = {1, 2};

  const units::Seconds model_answer = oracle.PredictInMix(0, mix);
  EXPECT_NE(model_answer, oracle.IsolatedLatency(0));
  EXPECT_EQ(oracle.degradations(), 0u);

  // Breaker opens: the oracle answers with the isolated latency without
  // evaluating the untrusted model...
  health.degraded = {0};
  EXPECT_EQ(oracle.PredictInMix(0, mix), oracle.IsolatedLatency(0));
  EXPECT_EQ(oracle.degradations(), 1u);
  EXPECT_EQ(oracle.evaluations(), 1u);
  EXPECT_TRUE(oracle.Degraded(0));
  EXPECT_FALSE(oracle.Degraded(1));

  // ...and recovery immediately serves the full-model answer again.
  health.degraded = {};
  EXPECT_EQ(oracle.PredictInMix(0, mix), model_answer);
  EXPECT_FALSE(oracle.Degraded(0));
}

TEST(MixOracleTest, PredictFailPointForcesDegradation) {
  MixOracle oracle(&SharedPredictor());
  auto& registry = FailPointRegistry::Global();
  const std::vector<int> mix = {3, 4};
  const units::Seconds model_answer = oracle.PredictInMix(0, mix);

  registry.ArmOnce("sched.mix_oracle.predict");
  EXPECT_EQ(oracle.PredictInMix(0, mix), oracle.IsolatedLatency(0));
  EXPECT_EQ(oracle.degradations(), 1u);
  registry.DisarmAll();

  EXPECT_EQ(oracle.PredictInMix(0, mix), model_answer);
  // Empty mixes short-circuit before the probe: isolated IS the answer.
  registry.ArmProbability("sched.mix_oracle.predict", 1.0);
  EXPECT_EQ(oracle.PredictInMix(0, {}), oracle.IsolatedLatency(0));
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
