#include "serve/health.h"

#include "util/logging.h"

namespace contender::serve {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

void CircuitBreaker::TripOpen() {
  state_ = BreakerState::kOpen;
  ++trips_;
  cooldown_seen_ = 0;
  // Forget the poisoned window: when the breaker eventually closes it
  // starts judging the model afresh.
  window_count_ = 0;
  window_next_ = 0;
  window_sum_ = 0.0;
}

void CircuitBreaker::Record(double abs_residual) {
  switch (state_) {
    case BreakerState::kClosed: {
      if (window_count_ == kWindow) {
        window_sum_ -= window_[window_next_];
      } else {
        ++window_count_;
      }
      window_[window_next_] = abs_residual;
      window_next_ = (window_next_ + 1) % kWindow;
      window_sum_ += abs_residual;
      const double mean = window_sum_ / static_cast<double>(window_count_);
      if (window_count_ >= kMinSamples && mean > kErrorThreshold) {
        TripOpen();
      }
      break;
    }
    case BreakerState::kOpen:
      if (++cooldown_seen_ >= kOpenCooldown) {
        state_ = BreakerState::kHalfOpen;
        half_open_ok_ = 0;
      }
      break;
    case BreakerState::kHalfOpen:
      if (abs_residual <= kErrorThreshold) {
        if (++half_open_ok_ >= kHalfOpenProbes) {
          state_ = BreakerState::kClosed;
        }
      } else {
        TripOpen();
      }
      break;
  }
}

namespace {

// Validates before the member vectors are sized: a negative count cast to
// size_t would otherwise fail allocation instead of this check.
size_t CheckedTemplateCount(int num_templates) {
  CONTENDER_CHECK(num_templates >= 1)
      << "HealthTracker: num_templates must be >= 1";
  return static_cast<size_t>(num_templates);
}

}  // namespace

HealthTracker::HealthTracker(int num_templates)
    : breakers_(CheckedTemplateCount(num_templates)),
      published_(static_cast<size_t>(num_templates)) {
  for (std::atomic<uint8_t>& s : published_) {
    s.store(static_cast<uint8_t>(BreakerState::kClosed),
            std::memory_order_relaxed);
  }
}

void HealthTracker::Record(int template_index, double abs_residual) {
  MutexLock lock(&mutex_);
  CONTENDER_CHECK(template_index >= 0 &&
                  static_cast<size_t>(template_index) < breakers_.size())
      << "HealthTracker: unknown template index " << template_index;
  CircuitBreaker& breaker = breakers_[static_cast<size_t>(template_index)];
  breaker.Record(abs_residual);
  // Republish so lock-free readers see the post-transition state.
  published_[static_cast<size_t>(template_index)].store(
      static_cast<uint8_t>(breaker.state()), std::memory_order_release);
  ++records_;
}

BreakerState HealthTracker::state(int template_index) const {
  CONTENDER_CHECK(template_index >= 0 &&
                  static_cast<size_t>(template_index) < published_.size())
      << "HealthTracker: unknown template index " << template_index;
  return static_cast<BreakerState>(
      published_[static_cast<size_t>(template_index)].load(
          std::memory_order_acquire));
}

bool HealthTracker::Degraded(int template_index) const {
  return state(template_index) == BreakerState::kOpen;
}

uint64_t HealthTracker::trips() const {
  MutexLock lock(&mutex_);
  uint64_t total = 0;
  for (const CircuitBreaker& b : breakers_) total += b.trips();
  return total;
}

uint64_t HealthTracker::records() const {
  MutexLock lock(&mutex_);
  return records_;
}

int HealthTracker::num_templates() const {
  MutexLock lock(&mutex_);
  return static_cast<int>(breakers_.size());
}

}  // namespace contender::serve
