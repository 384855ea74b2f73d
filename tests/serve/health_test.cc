#include "serve/health.h"

#include <gtest/gtest.h>

#include <string>

namespace contender::serve {
namespace {

BreakerOptions TightOptions() {
  BreakerOptions options;
  options.error_threshold = 0.25;
  options.window = 8;
  options.min_samples = 4;
  options.open_cooldown = 3;
  options.half_open_probes = 2;
  return options;
}

TEST(NamesTest, TiersAndStatesHaveStableNames) {
  EXPECT_EQ(std::string(DegradationTierName(DegradationTier::kFullModel)),
            "full-model");
  EXPECT_EQ(std::string(DegradationTierName(DegradationTier::kTransferredQs)),
            "transferred-qs");
  EXPECT_EQ(
      std::string(DegradationTierName(DegradationTier::kIsolatedHeuristic)),
      "isolated-heuristic");
  EXPECT_EQ(std::string(BreakerStateName(BreakerState::kClosed)), "closed");
  EXPECT_EQ(std::string(BreakerStateName(BreakerState::kOpen)), "open");
  EXPECT_EQ(std::string(BreakerStateName(BreakerState::kHalfOpen)),
            "half-open");
}

TEST(CircuitBreakerTest, StaysClosedOnHealthyResiduals) {
  CircuitBreaker breaker(TightOptions());
  for (int i = 0; i < 100; ++i) breaker.Record(0.05);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreakerTest, OneNoisyRecordCannotTrip) {
  CircuitBreaker breaker(TightOptions());
  // min_samples = 4: a single huge residual is not enough evidence.
  breaker.Record(100.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, SustainedDriftTripsOpen) {
  CircuitBreaker breaker(TightOptions());
  for (int i = 0; i < 4; ++i) breaker.Record(0.5);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreakerTest, RollingWindowForgetsOldResiduals) {
  BreakerOptions options = TightOptions();
  options.window = 4;
  CircuitBreaker breaker(options);
  // Two bad then a stream of good: by the time min_samples is met the bad
  // ones still dominate the mean? 0.4+0.4+0.0+0.0 over 4 = 0.2 < 0.25, so
  // the breaker must hold closed — the window dilutes stale evidence.
  breaker.Record(0.4);
  breaker.Record(0.4);
  for (int i = 0; i < 20; ++i) breaker.Record(0.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, OpenCoolsDownToHalfOpenThenCloses) {
  CircuitBreaker breaker(TightOptions());
  for (int i = 0; i < 4; ++i) breaker.Record(0.5);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  // open_cooldown = 3 records observed while open.
  breaker.Record(0.5);
  breaker.Record(0.5);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  breaker.Record(0.5);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // half_open_probes = 2 consecutive healthy residuals close it.
  breaker.Record(0.1);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.Record(0.1);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, UnhealthyProbeReopensAndCountsATrip) {
  CircuitBreaker breaker(TightOptions());
  for (int i = 0; i < 4; ++i) breaker.Record(0.5);
  for (int i = 0; i < 3; ++i) breaker.Record(0.5);
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.Record(0.9);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
}

TEST(CircuitBreakerTest, ReclosedBreakerJudgesAfresh) {
  CircuitBreaker breaker(TightOptions());
  for (int i = 0; i < 4; ++i) breaker.Record(0.5);
  for (int i = 0; i < 3; ++i) breaker.Record(0.5);
  breaker.Record(0.1);
  breaker.Record(0.1);
  ASSERT_EQ(breaker.state(), BreakerState::kClosed);
  // The poisoned window was cleared on trip: it takes min_samples fresh
  // bad residuals (not one) to trip again.
  breaker.Record(0.5);
  breaker.Record(0.5);
  breaker.Record(0.5);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.Record(0.5);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(HealthTrackerTest, TracksTemplatesIndependently) {
  HealthTracker tracker(3, TightOptions());
  EXPECT_EQ(tracker.num_templates(), 3);
  for (int i = 0; i < 4; ++i) tracker.Record(1, 0.5);
  EXPECT_EQ(tracker.state(0), BreakerState::kClosed);
  EXPECT_EQ(tracker.state(1), BreakerState::kOpen);
  EXPECT_EQ(tracker.state(2), BreakerState::kClosed);
  EXPECT_FALSE(tracker.Degraded(0));
  EXPECT_TRUE(tracker.Degraded(1));
  EXPECT_EQ(tracker.trips(), 1u);
  EXPECT_EQ(tracker.records(), 4u);
  EXPECT_EQ(tracker.OpenTemplates(), std::vector<int>{1});
}

TEST(HealthTrackerTest, ImplementsSchedTemplateHealth) {
  HealthTracker tracker(2, TightOptions());
  sched::TemplateHealth* health = &tracker;
  EXPECT_FALSE(health->Degraded(0));
  for (int i = 0; i < 4; ++i) tracker.Record(0, 0.5);
  EXPECT_TRUE(health->Degraded(0));
}

// The count is checked before the breaker vectors are sized, so -1 dies on
// the check's message rather than on a vector length error.
TEST(HealthTrackerDeathTest, RejectsFewerThanOneTemplate) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH({ HealthTracker tracker(0); },
               "num_templates must be >= 1");
  EXPECT_DEATH({ HealthTracker tracker(-1); },
               "num_templates must be >= 1");
}

}  // namespace
}  // namespace contender::serve
