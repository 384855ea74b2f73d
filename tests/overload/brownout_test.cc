// Brownout ladder mechanics: streak-gated escalation, hysteresis band
// holding, de-escalation symmetry, and the floor→admission mapping that
// sheds the least critical tier first.

#include "overload/brownout.h"

#include <gtest/gtest.h>

namespace contender::overload {
namespace {

constexpr int kStreak = BrownoutLadder::kRungStreak;

TEST(BrownoutTest, StartsOpenAndAdmitsEveryTier) {
  BrownoutLadder ladder;
  EXPECT_EQ(ladder.rung(), 0);
  EXPECT_EQ(ladder.floor(), Criticality::kSheddable);
  for (Criticality tier : AllCriticalities()) {
    EXPECT_TRUE(ladder.Admits(tier));
  }
}

TEST(BrownoutTest, EscalatesOnlyAfterAFullStreak) {
  BrownoutLadder ladder;
  for (int i = 0; i < kStreak - 1; ++i) ladder.Observe(3.0);
  EXPECT_EQ(ladder.rung(), 0) << "one short of a streak: not yet";
  ladder.Observe(3.0);
  EXPECT_EQ(ladder.rung(), 1);
  EXPECT_EQ(ladder.escalations(), 1u);
  // Rung 1 sheds exactly the sheddable tier.
  EXPECT_EQ(ladder.floor(), Criticality::kStandard);
  EXPECT_FALSE(ladder.Admits(Criticality::kSheddable));
  EXPECT_TRUE(ladder.Admits(Criticality::kStandard));
  EXPECT_TRUE(ladder.Admits(Criticality::kCritical));
}

TEST(BrownoutTest, TopRungAdmitsOnlyCriticalAndSaturates) {
  BrownoutLadder ladder;
  for (int i = 0; i < 8 * kStreak; ++i) ladder.Observe(5.0);
  EXPECT_EQ(ladder.rung(), 2);
  EXPECT_EQ(ladder.floor(), Criticality::kCritical);
  EXPECT_FALSE(ladder.Admits(Criticality::kStandard));
  EXPECT_TRUE(ladder.Admits(Criticality::kCritical));
  EXPECT_EQ(ladder.escalations(), 2u) << "saturated: no phantom rungs";
}

TEST(BrownoutTest, HysteresisBandHoldsTheRung) {
  BrownoutLadder ladder;
  for (int i = 0; i < kStreak; ++i) ladder.Observe(3.0);
  ASSERT_EQ(ladder.rung(), 1);
  // Pressure between exit (0.75) and enter (2.0): neither streak grows.
  for (int i = 0; i < 100; ++i) ladder.Observe(1.2);
  EXPECT_EQ(ladder.rung(), 1);
  EXPECT_EQ(ladder.deescalations(), 0u);
}

TEST(BrownoutTest, MixedSamplesResetTheStreaks) {
  BrownoutLadder ladder;
  // A streak short by one, one in-band, ... never a full streak.
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < kStreak - 1; ++i) ladder.Observe(3.0);
    ladder.Observe(1.0);
  }
  EXPECT_EQ(ladder.rung(), 0);
}

TEST(BrownoutTest, DeescalatesAfterSustainedCalm) {
  BrownoutLadder ladder;
  for (int i = 0; i < 2 * kStreak; ++i) ladder.Observe(5.0);
  ASSERT_EQ(ladder.rung(), 2);
  for (int i = 0; i < kStreak - 1; ++i) ladder.Observe(0.1);
  EXPECT_EQ(ladder.rung(), 2) << "one short of a calm streak: not yet";
  ladder.Observe(0.1);
  EXPECT_EQ(ladder.rung(), 1);
  for (int i = 0; i < kStreak; ++i) ladder.Observe(0.1);
  EXPECT_EQ(ladder.rung(), 0);
  EXPECT_EQ(ladder.deescalations(), 2u);
  // Fully open: further calm is a no-op.
  for (int i = 0; i < 2 * kStreak; ++i) ladder.Observe(0.0);
  EXPECT_EQ(ladder.rung(), 0);
  EXPECT_EQ(ladder.deescalations(), 2u);
}

}  // namespace
}  // namespace contender::overload
