#include "overload/adaptive_limiter.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace contender::overload {

static_assert(AdaptiveLimiter::kEwmaAlpha > 0.0 &&
              AdaptiveLimiter::kEwmaAlpha <= 1.0);
static_assert(AdaptiveLimiter::kOverloadRatio > 1.0);
static_assert(AdaptiveLimiter::kDecreaseFactor > 0.0 &&
              AdaptiveLimiter::kDecreaseFactor < 1.0);
static_assert(AdaptiveLimiter::kIncreasePeriod >= 1);
static_assert(AdaptiveLimiter::kDecreaseCooldown >= 1);

AdaptiveLimiter::AdaptiveLimiter(int max_limit)
    : max_limit_(max_limit), limit_(max_limit) {
  CONTENDER_CHECK(max_limit_ >= kMinLimit)
      << "AdaptiveLimiter: max_limit must be >= " << kMinLimit;
}

void AdaptiveLimiter::OnCompletion(units::Seconds predicted,
                                   units::Seconds observed) {
  if (predicted <= units::Seconds(0.0)) return;
  ++completions_;
  const double ratio = observed.value() / predicted.value();
  ratio_ewma_ = kEwmaAlpha * ratio + (1.0 - kEwmaAlpha) * ratio_ewma_;
  if (ratio_ewma_ > kOverloadRatio) {
    healthy_streak_ = 0;
    const bool cooled =
        !ever_decreased_ ||
        completions_ - last_decrease_completion_ >=
            static_cast<uint64_t>(kDecreaseCooldown);
    if (cooled && limit_ > kMinLimit) {
      limit_ = std::max(
          kMinLimit, static_cast<int>(std::floor(limit_ * kDecreaseFactor)));
      last_decrease_completion_ = completions_;
      ever_decreased_ = true;
      ++decreases_;
    }
    return;
  }
  if (++healthy_streak_ >= kIncreasePeriod) {
    healthy_streak_ = 0;
    if (limit_ < max_limit_) {
      ++limit_;
      ++increases_;
    }
  }
}

}  // namespace contender::overload
