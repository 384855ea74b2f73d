// Metastable-failure detector: notices when the system has fallen into a
// bad stable state (goodput persistently below offered load while queue
// delay keeps growing) and flips into a recovery mode that sheds
// aggressively until queues drain.
//
// The defining property of a metastable failure (Bronson et al., HotOS
// '21) is that the overload *sustains itself* after the trigger is gone —
// queues are long enough that work times out, timed-out work is retried,
// and the retries keep the queues long. No per-request controller breaks
// that loop, because every individual decision looks locally fine. This
// detector therefore watches the aggregate over a sliding window of door
// decisions: offered arrivals vs completions (goodput) and the trend of
// queue delay. Both bad together ⇒ the vicious cycle is running ⇒ enter
// recovery and stay there until delay actually drains, not merely until
// the next window looks marginally better — exiting early just re-enters
// the cycle.
//
// Deterministic: a pure function of the Observe() call sequence.

#ifndef CONTENDER_OVERLOAD_METASTABILITY_H_
#define CONTENDER_OVERLOAD_METASTABILITY_H_

#include <cstdint>

#include "util/units.h"

namespace contender::overload {

class MetastabilityDetector {
 public:
  /// Door decisions per evaluation window.
  static constexpr int kWindow = 16;
  /// Recovery triggers when completions over a window fall below this
  /// fraction of offered arrivals...
  static constexpr double kGoodputFraction = 0.5;
  /// ...while the window's mean queue delay exceeds the previous
  /// window's by at least this factor (the "growing" requirement).
  static constexpr double kDelayGrowth = 1.1;
  /// Recovery ends only when an observed queue delay drains below this.
  static constexpr units::Seconds kDrainDelay{1.0};

  /// One door decision: the candidate's queue delay and the system's
  /// cumulative completion count at that instant.
  void Observe(units::Seconds queue_delay, uint64_t completions_so_far);

  [[nodiscard]] bool in_recovery() const { return in_recovery_; }
  [[nodiscard]] uint64_t windows() const { return windows_; }
  [[nodiscard]] uint64_t recovery_entries() const { return recovery_entries_; }

 private:
  bool in_recovery_ = false;
  int samples_in_window_ = 0;
  double delay_sum_ = 0.0;
  uint64_t completions_at_window_start_ = 0;
  bool have_window_start_ = false;
  double prev_mean_delay_ = 0.0;
  bool have_prev_window_ = false;
  uint64_t windows_ = 0;
  uint64_t recovery_entries_ = 0;
};

}  // namespace contender::overload

#endif  // CONTENDER_OVERLOAD_METASTABILITY_H_
