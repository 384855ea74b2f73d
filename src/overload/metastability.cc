#include "overload/metastability.h"

namespace contender::overload {

static_assert(MetastabilityDetector::kWindow >= 2);
static_assert(MetastabilityDetector::kGoodputFraction > 0.0 &&
              MetastabilityDetector::kGoodputFraction < 1.0);
static_assert(MetastabilityDetector::kDelayGrowth >= 1.0);
static_assert(MetastabilityDetector::kDrainDelay >= units::Seconds(0.0));

void MetastabilityDetector::Observe(units::Seconds queue_delay,
                                    uint64_t completions_so_far) {
  if (!have_window_start_) {
    have_window_start_ = true;
    completions_at_window_start_ = completions_so_far;
  }
  // Recovery exits on drained queues, sampled continuously — waiting for
  // a window boundary would hold the aggressive mode past the drain.
  if (in_recovery_ && queue_delay <= kDrainDelay) {
    in_recovery_ = false;
  }
  delay_sum_ += queue_delay.value();
  if (++samples_in_window_ < kWindow) return;

  ++windows_;
  const double mean_delay = delay_sum_ / samples_in_window_;
  const uint64_t offered = static_cast<uint64_t>(samples_in_window_);
  const uint64_t completed =
      completions_so_far - completions_at_window_start_;
  const bool goodput_collapsed =
      static_cast<double>(completed) <
      kGoodputFraction * static_cast<double>(offered);
  const bool delay_growing =
      have_prev_window_
          ? mean_delay > prev_mean_delay_ * kDelayGrowth
          : mean_delay > kDrainDelay.value();
  if (!in_recovery_ && goodput_collapsed && delay_growing) {
    in_recovery_ = true;
    ++recovery_entries_;
  }
  prev_mean_delay_ = mean_delay;
  have_prev_window_ = true;
  samples_in_window_ = 0;
  delay_sum_ = 0.0;
  completions_at_window_start_ = completions_so_far;
}

}  // namespace contender::overload
