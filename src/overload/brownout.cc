#include "overload/brownout.h"

namespace contender::overload {

namespace {
// Rungs above "admit everything": shed kSheddable, then also kStandard.
constexpr int kMaxRung = static_cast<int>(Criticality::kCritical);
}  // namespace

// The enter/exit gap is the hysteresis band.
static_assert(BrownoutLadder::kEnterPressure > BrownoutLadder::kExitPressure);
static_assert(BrownoutLadder::kExitPressure >= 0.0);
static_assert(BrownoutLadder::kRungStreak >= 1);

void BrownoutLadder::Observe(double pressure) {
  if (pressure >= kEnterPressure) {
    below_streak_ = 0;
    if (++above_streak_ >= kRungStreak) {
      above_streak_ = 0;
      if (rung_ < kMaxRung) {
        ++rung_;
        ++escalations_;
      }
    }
    return;
  }
  above_streak_ = 0;
  if (pressure <= kExitPressure) {
    if (++below_streak_ >= kRungStreak) {
      below_streak_ = 0;
      if (rung_ > 0) {
        --rung_;
        ++deescalations_;
      }
    }
    return;
  }
  // Inside the hysteresis band: both streaks reset, the ladder holds.
  below_streak_ = 0;
}

Criticality BrownoutLadder::floor() const {
  return static_cast<Criticality>(rung_);
}

}  // namespace contender::overload
