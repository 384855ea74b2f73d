// AIMD limiter mechanics: multiplicative decrease past the overload
// ratio, additive +1 recovery after sustained health, cooldown between
// decreases, floor/ceiling clamps, and call-sequence determinism.

#include "overload/adaptive_limiter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace contender::overload {
namespace {

// One completion 3x slower than predicted lifts a calm EWMA to
// 0.7 * 1.0 + 0.3 * 3.0 = 1.6, past the 1.4 knee; one twice as fast as
// predicted brings 1.6 back to 0.7 * 1.6 + 0.3 * 0.5 = 1.27, below it.
void Slow(AdaptiveLimiter* limiter) {
  limiter->OnCompletion(units::Seconds(1.0), units::Seconds(3.0));
}
void Fast(AdaptiveLimiter* limiter) {
  limiter->OnCompletion(units::Seconds(1.0), units::Seconds(0.5));
}

TEST(AdaptiveLimiterTest, StartsAtCeilingAndTracksHealthySteady) {
  AdaptiveLimiter limiter(8);
  EXPECT_EQ(limiter.limit(), 8);
  for (int i = 0; i < 32; ++i) {
    limiter.OnCompletion(units::Seconds(1.0), units::Seconds(1.0));
  }
  // Already at the ceiling: healthy completions never push past it.
  EXPECT_EQ(limiter.limit(), 8);
  EXPECT_EQ(limiter.decreases(), 0u);
  EXPECT_DOUBLE_EQ(limiter.ratio_ewma(), 1.0);
}

TEST(AdaptiveLimiterTest, SustainedOverloadBacksOffMultiplicatively) {
  AdaptiveLimiter limiter(8);
  Slow(&limiter);
  EXPECT_NEAR(limiter.ratio_ewma(), 1.6, 1e-12);
  EXPECT_EQ(limiter.limit(), 5) << "floor(8 * 0.7)";
  EXPECT_EQ(limiter.decreases(), 1u);
  // Cooldown: the very next bad completion must NOT decrease again.
  Slow(&limiter);
  EXPECT_EQ(limiter.limit(), 5);
  // After the cooldown expires the decrease resumes: 5 -> 3.
  Slow(&limiter);
  EXPECT_EQ(limiter.limit(), 3);
  EXPECT_EQ(limiter.decreases(), 2u);
  // ... and on down to the floor.
  for (int i = 0; i < 16; ++i) Slow(&limiter);
  EXPECT_EQ(limiter.limit(), AdaptiveLimiter::kMinLimit);
  Slow(&limiter);
  EXPECT_EQ(limiter.limit(), AdaptiveLimiter::kMinLimit)
      << "never below kMinLimit";
}

TEST(AdaptiveLimiterTest, RecoversAdditivelyAfterHealthyStreak) {
  AdaptiveLimiter limiter(8);
  Slow(&limiter);
  ASSERT_EQ(limiter.limit(), 5);
  // One healthy completion short of a full streak: no change yet.
  for (int i = 0; i < AdaptiveLimiter::kIncreasePeriod - 1; ++i) {
    Fast(&limiter);
  }
  EXPECT_EQ(limiter.limit(), 5);
  // The streak's last healthy completion earns exactly +1.
  Fast(&limiter);
  EXPECT_EQ(limiter.limit(), 6);
  EXPECT_EQ(limiter.increases(), 1u);
  // Three more full streaks: +1 twice, then clamped at the ceiling.
  for (int i = 0; i < 3 * AdaptiveLimiter::kIncreasePeriod; ++i) {
    Fast(&limiter);
  }
  EXPECT_EQ(limiter.limit(), 8);
  EXPECT_EQ(limiter.increases(), 3u);
}

TEST(AdaptiveLimiterTest, OverloadResetsTheHealthyStreak) {
  AdaptiveLimiter limiter(8);
  Slow(&limiter);
  ASSERT_EQ(limiter.limit(), 5);
  // healthy x2, bad, then healthy: the bad sample restarts the streak, so
  // the +1 needs a full kIncreasePeriod of healthy completions after it.
  Fast(&limiter);
  Fast(&limiter);
  Slow(&limiter);
  ASSERT_GT(limiter.ratio_ewma(), AdaptiveLimiter::kOverloadRatio);
  for (int i = 0; i < AdaptiveLimiter::kIncreasePeriod - 1; ++i) {
    Fast(&limiter);
  }
  EXPECT_EQ(limiter.increases(), 0u);
  Fast(&limiter);
  EXPECT_EQ(limiter.increases(), 1u);
}

TEST(AdaptiveLimiterTest, IgnoresNonPositivePredictions) {
  AdaptiveLimiter limiter(8);
  limiter.OnCompletion(units::Seconds(0.0), units::Seconds(50.0));
  limiter.OnCompletion(units::Seconds(-1.0), units::Seconds(50.0));
  EXPECT_EQ(limiter.limit(), 8);
  EXPECT_EQ(limiter.completions(), 0u);
}

TEST(AdaptiveLimiterTest, EwmaSmoothsSpikes) {
  AdaptiveLimiter limiter(8);
  // One 2.3x spike against a 1.0 EWMA: 0.7*1.0 + 0.3*2.3 = 1.39, below
  // the 1.4 knee — a single outlier cannot trigger backoff.
  limiter.OnCompletion(units::Seconds(1.0), units::Seconds(2.3));
  EXPECT_EQ(limiter.limit(), 8);
  EXPECT_NEAR(limiter.ratio_ewma(), 1.39, 1e-12);
}

TEST(AdaptiveLimiterTest, TrajectoryIsAPureFunctionOfTheSequence) {
  auto run = [] {
    AdaptiveLimiter limiter(8);
    std::vector<int> trajectory;
    for (int i = 0; i < 64; ++i) {
      const double observed = (i % 7 < 3) ? 3.0 : 0.9;
      limiter.OnCompletion(units::Seconds(1.0), units::Seconds(observed));
      trajectory.push_back(limiter.limit());
    }
    return trajectory;
  };
  const std::vector<int> first = run();
  EXPECT_EQ(first, run());
  EXPECT_LT(*std::min_element(first.begin(), first.end()), 8)
      << "the sequence never moved the limit";
}

}  // namespace
}  // namespace contender::overload
