// AIMD concurrency limiter driven by the observed-vs-predicted latency
// ratio — the prediction-driven replacement for a static MPL budget.
//
// Contender's predictor prices every admitted query before it runs:
// L(c|M) is what the mix *should* cost. When completions keep coming back
// slower than predicted, the node is running past its contention knee
// (spills, cache pressure — the regimes the model was not asked about),
// and the limiter multiplicatively backs the admission limit off. When
// completions track their predictions, the limit creeps back up one slot
// at a time. Classic AIMD, but the congestion signal is the model's own
// error instead of a latency SLO guess.
//
// Purely deterministic: state advances only on OnCompletion(), so a
// replayed schedule drives an identical limit trajectory at any thread
// count.

#ifndef CONTENDER_OVERLOAD_ADAPTIVE_LIMITER_H_
#define CONTENDER_OVERLOAD_ADAPTIVE_LIMITER_H_

#include <cstdint>

#include "util/units.h"

namespace contender::overload {

class AdaptiveLimiter {
 public:
  /// Floor of the limit.
  static constexpr int kMinLimit = 1;
  /// EWMA smoothing over per-completion observed/predicted ratios.
  static constexpr double kEwmaAlpha = 0.3;
  /// EWMA ratio above this means the node is past its knee: decrease.
  static constexpr double kOverloadRatio = 1.4;
  /// Multiplicative decrease factor applied to the limit.
  static constexpr double kDecreaseFactor = 0.7;
  /// Consecutive healthy completions before an additive +1 increase.
  static constexpr int kIncreasePeriod = 4;
  /// Minimum completions between two decreases, so one bad burst does
  /// not collapse the limit straight to the floor.
  static constexpr int kDecreaseCooldown = 2;

  /// Starts at `max_limit`, the ceiling: the node's static target MPL,
  /// which the limiter only ever tightens. CHECK-fails below kMinLimit.
  explicit AdaptiveLimiter(int max_limit);

  /// Feeds one completion's predicted and observed execution latency.
  /// Non-positive predictions are ignored (no signal).
  void OnCompletion(units::Seconds predicted, units::Seconds observed);

  /// The current admission limit, always in [kMinLimit, max_limit].
  [[nodiscard]] int limit() const { return limit_; }

  /// The smoothed observed/predicted ratio (1.0 = model-perfect).
  [[nodiscard]] double ratio_ewma() const { return ratio_ewma_; }

  [[nodiscard]] uint64_t completions() const { return completions_; }
  [[nodiscard]] uint64_t increases() const { return increases_; }
  [[nodiscard]] uint64_t decreases() const { return decreases_; }

 private:
  const int max_limit_;
  int limit_;
  double ratio_ewma_ = 1.0;
  uint64_t completions_ = 0;
  uint64_t increases_ = 0;
  uint64_t decreases_ = 0;
  int healthy_streak_ = 0;
  uint64_t last_decrease_completion_ = 0;
  bool ever_decreased_ = false;
};

}  // namespace contender::overload

#endif  // CONTENDER_OVERLOAD_ADAPTIVE_LIMITER_H_
