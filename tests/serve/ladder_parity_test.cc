// Cross-layer agreement on the degradation ladder: the scheduler's
// MixOracle and the serving PredictionService, wired to ONE HealthTracker,
// answer every (template, mix) with the same latency — under closed,
// half-open and open breakers, at MPLs with a template's own QS model,
// without one, and beyond every trained MPL.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sched/mix_oracle.h"
#include "serve/health.h"
#include "serve/service.h"
#include "test_support.h"

namespace contender::serve {
namespace {

TEST(LadderParityTest, OracleAndServiceAgreeUnderEveryBreakerState) {
  // Template 0 has no QS model at any MPL, so even with a closed breaker
  // its in-mix answers come from tier 1.
  constexpr int kUncovered = 0;
  constexpr int kOpen = 1;
  constexpr int kHalfOpen = 2;
  const auto snapshot = ModelSnapshot::Create(
      testing::TrainWithoutModelsFor({kUncovered}), 1);
  const int n = snapshot->num_templates();

  auto health = std::make_shared<HealthTracker>(n);
  PredictionService::Options service_options;
  service_options.num_threads = 1;
  service_options.health = health;
  PredictionService service(snapshot, service_options);
  sched::MixOracle::Options oracle_options;
  oracle_options.health = health.get();
  const sched::MixOracle oracle(&snapshot->predictor(), oracle_options);

  // Trip two breakers open (kMinSamples bad residuals), then let one sit
  // out its cooldown into half-open.
  for (size_t i = 0; i < CircuitBreaker::kMinSamples; ++i) {
    health->Record(kOpen, 10.0);
    health->Record(kHalfOpen, 10.0);
  }
  for (size_t i = 0; i < CircuitBreaker::kOpenCooldown; ++i) {
    health->Record(kHalfOpen, 0.0);
  }
  ASSERT_EQ(health->state(kOpen), BreakerState::kOpen);
  ASSERT_EQ(health->state(kHalfOpen), BreakerState::kHalfOpen);
  ASSERT_EQ(health->state(3), BreakerState::kClosed);

  int by_tier[3] = {0, 0, 0};
  for (int t = 0; t < n; ++t) {
    // MPL 1 through 6; the models cover MPL 2-5 only.
    const std::vector<std::vector<int>> mixes = {
        {},
        {(t + 5) % n},
        {(t + 9) % n, (t + 1) % n},
        {(t + 4) % n, (t + 7) % n, (t + 2) % n},
        {(t + 6) % n, (t + 1) % n, (t + 8) % n, (t + 10) % n},
        {(t + 1) % n, (t + 2) % n, (t + 3) % n, (t + 4) % n, (t + 5) % n}};
    for (const std::vector<int>& mix : mixes) {
      const PredictResult served = service.PredictDetailed(t, mix);
      ASSERT_TRUE(served.status.ok()) << served.status;
      EXPECT_EQ(oracle.PredictInMix(t, mix), served.latency)
          << "template " << t << " at MPL " << mix.size() + 1;
      ++by_tier[static_cast<int>(served.tier)];
      const bool covered_mpl = !mix.empty() && mix.size() <= 4;
      if (covered_mpl && (t == kOpen || t == kUncovered)) {
        EXPECT_EQ(served.tier, DegradationTier::kTransferredQs)
            << "template " << t;
      }
      if (covered_mpl && t == kHalfOpen) {
        EXPECT_EQ(served.tier, DegradationTier::kFullModel);
      }
    }
  }
  // Every rung answered somewhere in the sweep.
  EXPECT_GT(by_tier[0], 0);
  EXPECT_GT(by_tier[1], 0);
  EXPECT_GT(by_tier[2], 0);
  EXPECT_GT(oracle.degradations(), 0u);
  EXPECT_GT(oracle.fallbacks(), 0u);
}

}  // namespace
}  // namespace contender::serve
