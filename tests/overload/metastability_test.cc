// Metastability detector: recovery requires BOTH collapsed goodput and
// growing delay over a full window; recovery exits only when queue delay
// actually drains, not when the next window looks marginally better.

#include "overload/metastability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace contender::overload {
namespace {

constexpr int kWindow = MetastabilityDetector::kWindow;

TEST(MetastabilityTest, HealthySystemNeverEntersRecovery) {
  MetastabilityDetector detector;
  // Goodput tracks offered (one completion per decision), delay low.
  uint64_t completions = 0;
  for (int i = 0; i < 4 * kWindow; ++i) {
    detector.Observe(units::Seconds(0.5), ++completions);
    EXPECT_FALSE(detector.in_recovery());
  }
  EXPECT_EQ(detector.windows(), 4u);
  EXPECT_EQ(detector.recovery_entries(), 0u);
}

TEST(MetastabilityTest, CollapsedGoodputAloneIsNotEnough) {
  MetastabilityDetector detector;
  // Zero completions, but queue delay stays drained: the backlog is not
  // self-sustaining, so no recovery.
  for (int i = 0; i < 2 * kWindow; ++i) {
    detector.Observe(units::Seconds(0.2), 0);
  }
  EXPECT_FALSE(detector.in_recovery());
}

TEST(MetastabilityTest, GrowingDelayAloneIsNotEnough) {
  MetastabilityDetector detector;
  // Delay ramps hard, but every decision completes work — the system is
  // slow, not metastable.
  uint64_t completions = 0;
  for (int i = 0; i < 2 * kWindow; ++i) {
    detector.Observe(units::Seconds(1.0 + i), ++completions);
  }
  EXPECT_FALSE(detector.in_recovery());
}

TEST(MetastabilityTest, CollapsedGoodputWithGrowingDelayEnters) {
  MetastabilityDetector detector;
  // First window: delay 5 (above kDrainDelay), zero completions — enters
  // at the first window boundary.
  for (int i = 0; i < kWindow - 1; ++i) {
    detector.Observe(units::Seconds(5.0), 0);
  }
  EXPECT_FALSE(detector.in_recovery()) << "mid-window: no verdict yet";
  // kWindow / 2 - 1 completions: just below kGoodputFraction of offered.
  detector.Observe(units::Seconds(5.0), kWindow / 2 - 1);
  EXPECT_TRUE(detector.in_recovery());
  EXPECT_EQ(detector.recovery_entries(), 1u);
}

TEST(MetastabilityTest, RecoveryExitsOnDrainNotOnBetterWindow) {
  MetastabilityDetector detector;
  for (int i = 0; i < kWindow; ++i) detector.Observe(units::Seconds(5.0), 0);
  ASSERT_TRUE(detector.in_recovery());
  // Delay improves (5.0 → 2.0) but stays above kDrainDelay: still in
  // recovery — exiting on "marginally better" re-enters the cycle.
  for (int i = 0; i < 2 * kWindow; ++i) {
    detector.Observe(units::Seconds(2.0), 0);
    EXPECT_TRUE(detector.in_recovery()) << "sample " << i;
  }
  // One drained sample ends recovery immediately, mid-window.
  detector.Observe(units::Seconds(0.5), 0);
  EXPECT_FALSE(detector.in_recovery());
  EXPECT_EQ(detector.recovery_entries(), 1u);
}

TEST(MetastabilityTest, ReentryAfterDrainNeedsFreshGrowth) {
  MetastabilityDetector detector;
  for (int i = 0; i < kWindow; ++i) detector.Observe(units::Seconds(5.0), 0);
  ASSERT_TRUE(detector.in_recovery());
  // Drain the queue, then hold delay flat at a bad 5.0 for the rest of
  // the window: mean (0.5 + 15 * 5.0) / 16 = 4.72 is not 1.1x the
  // previous window's 5.0, so a flat jam does not re-enter.
  detector.Observe(units::Seconds(0.5), 0);
  EXPECT_FALSE(detector.in_recovery());
  for (int i = 0; i < kWindow - 1; ++i) {
    detector.Observe(units::Seconds(5.0), 0);
  }
  EXPECT_FALSE(detector.in_recovery());
  // A window at 6.0 > 4.72 * 1.1: delay grew again, so it re-enters.
  for (int i = 0; i < kWindow; ++i) detector.Observe(units::Seconds(6.0), 0);
  EXPECT_TRUE(detector.in_recovery());
  EXPECT_EQ(detector.recovery_entries(), 2u);
  // Flat windows after that: no third entry while already in recovery.
  for (int i = 0; i < 2 * kWindow; ++i) {
    detector.Observe(units::Seconds(6.0), 0);
  }
  EXPECT_EQ(detector.recovery_entries(), 2u);
}

TEST(MetastabilityTest, StateIsAPureFunctionOfTheSequence) {
  auto run = [] {
    MetastabilityDetector detector;
    std::vector<bool> states;
    uint64_t completions = 0;
    for (int i = 0; i < 160; ++i) {
      const bool jammed = (i / 40) % 2 == 1;
      if (!jammed) ++completions;
      detector.Observe(units::Seconds(jammed ? 6.0 : 0.4), completions);
      states.push_back(detector.in_recovery());
    }
    return states;
  };
  const std::vector<bool> first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(std::find(first.begin(), first.end(), true), first.end())
      << "the jams never entered recovery";
}

}  // namespace
}  // namespace contender::overload
