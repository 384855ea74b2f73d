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

CircuitBreaker::CircuitBreaker(const BreakerOptions& options)
    : options_(options) {
  CONTENDER_CHECK(options_.window >= 1 && options_.min_samples >= 1)
      << "CircuitBreaker: window and min_samples must be >= 1";
  CONTENDER_CHECK(options_.half_open_probes >= 1)
      << "CircuitBreaker: half_open_probes must be >= 1";
  window_.assign(options_.window, 0.0);
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
      if (window_count_ == options_.window) {
        window_sum_ -= window_[window_next_];
      } else {
        ++window_count_;
      }
      window_[window_next_] = abs_residual;
      window_next_ = (window_next_ + 1) % options_.window;
      window_sum_ += abs_residual;
      const double mean = window_sum_ / static_cast<double>(window_count_);
      if (window_count_ >= options_.min_samples &&
          mean > options_.error_threshold) {
        TripOpen();
      }
      break;
    }
    case BreakerState::kOpen:
      if (++cooldown_seen_ >= options_.open_cooldown) {
        state_ = BreakerState::kHalfOpen;
        half_open_ok_ = 0;
      }
      break;
    case BreakerState::kHalfOpen:
      if (abs_residual <= options_.error_threshold) {
        if (++half_open_ok_ >= options_.half_open_probes) {
          state_ = BreakerState::kClosed;
        }
      } else {
        TripOpen();
      }
      break;
  }
}

HealthTracker::HealthTracker(int num_templates, const BreakerOptions& options)
    : breakers_(static_cast<size_t>(num_templates), CircuitBreaker(options)),
      published_(static_cast<size_t>(num_templates)) {
  CONTENDER_CHECK(num_templates >= 1)
      << "HealthTracker: num_templates must be >= 1";
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

std::vector<int> HealthTracker::OpenTemplates() const {
  MutexLock lock(&mutex_);
  std::vector<int> open;
  for (size_t i = 0; i < breakers_.size(); ++i) {
    if (breakers_[i].state() == BreakerState::kOpen) {
      open.push_back(static_cast<int>(i));
    }
  }
  return open;
}

int HealthTracker::num_templates() const {
  MutexLock lock(&mutex_);
  return static_cast<int>(breakers_.size());
}

}  // namespace contender::serve
