// Criticality brownout ladder: under sustained pressure, shed the least
// critical work first, and restore it last.
//
// The ladder has one rung per Criticality tier below kCritical. Pressure
// (queue delay normalized by the CoDel target, so 1.0 = "at target") is
// observed once per door decision; a full streak of decisions above the
// enter threshold escalates one rung, and a full streak below the exit
// threshold de-escalates one rung. The enter/exit gap plus the streak
// requirement is the hysteresis that keeps the ladder from flapping on a
// single noisy sample.
//
// This composes with the serve-side degradation ladder from PR 5: that
// one degrades *prediction quality* (full QS → transferred QS →
// heuristic) when the model is the failing resource; this one degrades
// *admission* (sheddable → standard) when the node is.

#ifndef CONTENDER_OVERLOAD_BROWNOUT_H_
#define CONTENDER_OVERLOAD_BROWNOUT_H_

#include <cstdint>

#include "overload/shed_reason.h"

namespace contender::overload {

class BrownoutLadder {
 public:
  /// Pressure (queue delay / CoDel target) at or above which a decision
  /// counts toward escalating the ladder.
  static constexpr double kEnterPressure = 2.0;
  /// Pressure at or below which a decision counts toward de-escalating.
  static constexpr double kExitPressure = 0.75;
  /// Consecutive qualifying decisions needed to move one rung.
  static constexpr int kRungStreak = 8;

  /// Feeds one door decision's pressure sample.
  void Observe(double pressure);

  /// The least critical tier currently admitted. Rung 0 admits
  /// everything (floor = kSheddable); the top rung admits only kCritical.
  [[nodiscard]] Criticality floor() const;

  /// Whether work of tier `criticality` passes the current floor.
  [[nodiscard]] bool Admits(Criticality criticality) const {
    return criticality >= floor();
  }

  [[nodiscard]] int rung() const { return rung_; }
  [[nodiscard]] uint64_t escalations() const { return escalations_; }
  [[nodiscard]] uint64_t deescalations() const { return deescalations_; }

 private:
  int rung_ = 0;  // 0 = admit all ... kMaxRung = critical only
  int above_streak_ = 0;
  int below_streak_ = 0;
  uint64_t escalations_ = 0;
  uint64_t deescalations_ = 0;
};

}  // namespace contender::overload

#endif  // CONTENDER_OVERLOAD_BROWNOUT_H_
