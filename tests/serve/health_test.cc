#include "serve/health.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

namespace contender::serve {
namespace {

constexpr size_t kMinSamples = CircuitBreaker::kMinSamples;
constexpr size_t kWindow = CircuitBreaker::kWindow;
constexpr size_t kOpenCooldown = CircuitBreaker::kOpenCooldown;
constexpr size_t kHalfOpenProbes = CircuitBreaker::kHalfOpenProbes;
// Residuals on either side of CircuitBreaker::kErrorThreshold (0.25).
constexpr double kHealthy = 0.1;
constexpr double kUnhealthy = 0.5;
static_assert(kHealthy <= CircuitBreaker::kErrorThreshold &&
              kUnhealthy > CircuitBreaker::kErrorThreshold);

// Trips `breaker` open from closed with kMinSamples unhealthy residuals.
void TripOpen(CircuitBreaker* breaker) {
  for (size_t i = 0; i < kMinSamples; ++i) breaker->Record(kUnhealthy);
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
  CircuitBreaker breaker;
  for (int i = 0; i < 100; ++i) breaker.Record(0.05);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreakerTest, OneNoisyRecordCannotTrip) {
  CircuitBreaker breaker;
  // Fewer than kMinSamples huge residuals are not enough evidence.
  for (size_t i = 0; i + 1 < kMinSamples; ++i) breaker.Record(100.0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, SustainedDriftTripsOpen) {
  CircuitBreaker breaker;
  TripOpen(&breaker);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreakerTest, RollingWindowForgetsOldResiduals) {
  CircuitBreaker breaker;
  // A full window of zeros, then a full window of 0.3: the mean over all
  // records never passes 0.15, so only a window that forgets the zeros
  // can see the 0.3 mean and trip.
  for (size_t i = 0; i < kWindow; ++i) breaker.Record(0.0);
  for (size_t i = 0; i < kWindow; ++i) breaker.Record(0.3);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(CircuitBreakerTest, OpenCoolsDownToHalfOpenThenCloses) {
  CircuitBreaker breaker;
  TripOpen(&breaker);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  // kOpenCooldown records observed while open.
  for (size_t i = 0; i + 1 < kOpenCooldown; ++i) breaker.Record(kUnhealthy);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  breaker.Record(kUnhealthy);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  // kHalfOpenProbes consecutive healthy residuals close it.
  for (size_t i = 0; i + 1 < kHalfOpenProbes; ++i) breaker.Record(kHealthy);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.Record(kHealthy);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, UnhealthyProbeReopensAndCountsATrip) {
  CircuitBreaker breaker;
  TripOpen(&breaker);
  for (size_t i = 0; i < kOpenCooldown; ++i) breaker.Record(kUnhealthy);
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.Record(0.9);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
}

TEST(CircuitBreakerTest, ReclosedBreakerJudgesAfresh) {
  CircuitBreaker breaker;
  TripOpen(&breaker);
  for (size_t i = 0; i < kOpenCooldown; ++i) breaker.Record(kUnhealthy);
  for (size_t i = 0; i < kHalfOpenProbes; ++i) breaker.Record(kHealthy);
  ASSERT_EQ(breaker.state(), BreakerState::kClosed);
  // The poisoned window was cleared on trip: it takes kMinSamples fresh
  // bad residuals (not one) to trip again.
  for (size_t i = 0; i + 1 < kMinSamples; ++i) breaker.Record(kUnhealthy);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.Record(kUnhealthy);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

TEST(HealthTrackerTest, TracksTemplatesIndependently) {
  HealthTracker tracker(3);
  EXPECT_EQ(tracker.num_templates(), 3);
  for (size_t i = 0; i < kMinSamples; ++i) tracker.Record(1, kUnhealthy);
  EXPECT_EQ(tracker.state(0), BreakerState::kClosed);
  EXPECT_EQ(tracker.state(1), BreakerState::kOpen);
  EXPECT_EQ(tracker.state(2), BreakerState::kClosed);
  EXPECT_FALSE(tracker.Degraded(0));
  EXPECT_TRUE(tracker.Degraded(1));
  EXPECT_EQ(tracker.trips(), 1u);
  EXPECT_EQ(tracker.records(), kMinSamples);
}

TEST(HealthTrackerTest, ImplementsSchedTemplateHealth) {
  HealthTracker tracker(2);
  sched::TemplateHealth* health = &tracker;
  EXPECT_FALSE(health->Degraded(0));
  for (size_t i = 0; i < kMinSamples; ++i) tracker.Record(0, kUnhealthy);
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
