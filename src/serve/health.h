// Model-health tracking: per-template circuit breakers.
//
// Contender's continuum residual (PAPER.md §5: observed minus predicted
// continuum point, scored by ObservationLog at ingest) is a per-template
// health signal: a template whose residuals drift is a template whose QS
// model has gone stale. This module turns that signal into a per-template
// circuit breaker. An open breaker quarantines the template's own QS
// model: every in-mix consumer then asks the core degradation ladder
// (ContenderPredictor::PredictInMix, core/predictor.h: full QS model →
// transferred QS → isolated latency) to start at tier 1 for that
// template, treating it like the paper §6 new template whose model is
// unknown.
//
// Every served answer is stamped with the tier that produced it
// (serve::PredictResult::tier), so degraded answers are auditable.
//
// Breaker state machine (deterministic, driven only by recorded
// residuals — no wall clock, so chaos replays are bit-reproducible):
//
//           mean |residual| over window > threshold
//   Closed ──────────────────────────────────────────▶ Open
//     ▲                                                 │ next
//     │ kHalfOpenProbes consecutive                     │ kOpenCooldown
//     │ healthy residuals                               │ records observed
//     │                 one unhealthy residual          ▼
//     └───────────────── Half-open ◀────────────────────┘
//                            │ (unhealthy → back to Open, trips++)
//
// While Open, serving (PredictionService) and the scheduler and fleet
// router (through sched::TemplateHealth and MixOracle) all skip tier 0 for
// that template, so they give one answer for one (template, mix).
// Half-open lets full-model answers through again (the probe) while the
// tracker watches whether residuals recovered.

#ifndef CONTENDER_SERVE_HEALTH_H_
#define CONTENDER_SERVE_HEALTH_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/predictor.h"
#include "sched/mix_oracle.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace contender::serve {

/// The ladder's tier lives in core; serving code spells it
/// serve::DegradationTier.
using ::contender::DegradationTier;

/// The three breaker states (see the state machine above).
enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState state);

/// One template's breaker. Not thread-safe; HealthTracker serializes.
class CircuitBreaker {
 public:
  /// A rolling-mean |continuum residual| above this is unhealthy.
  static constexpr double kErrorThreshold = 0.25;
  /// Rolling-window size for the closed-state mean.
  static constexpr size_t kWindow = 16;
  /// Minimum residuals in the window before the breaker may trip (one
  /// noisy record cannot open it).
  static constexpr size_t kMinSamples = 4;
  /// Records observed while open before probing (open -> half-open).
  static constexpr size_t kOpenCooldown = 8;
  /// Consecutive healthy residuals in half-open required to close.
  static constexpr size_t kHalfOpenProbes = 3;

  /// Feeds one |continuum residual| and advances the state machine.
  void Record(double abs_residual);

  [[nodiscard]] BreakerState state() const { return state_; }
  /// Transitions into Open (from closed or half-open).
  [[nodiscard]] uint64_t trips() const { return trips_; }

 private:
  void TripOpen();

  BreakerState state_ = BreakerState::kClosed;
  std::array<double, kWindow> window_{};  // ring buffer of recent |residuals|
  size_t window_next_ = 0;
  size_t window_count_ = 0;
  double window_sum_ = 0.0;
  size_t cooldown_seen_ = 0;
  size_t half_open_ok_ = 0;
  uint64_t trips_ = 0;
};

/// Thread-safe per-template breaker bank for one workload. Implements
/// sched::TemplateHealth so an oracle/policy stack can consume the same
/// signal the serving ladder does.
class HealthTracker final : public sched::TemplateHealth {
 public:
  explicit HealthTracker(int num_templates);

  /// Feeds template `template_index`'s breaker (ObservationLog calls this
  /// with each accepted record's |continuum residual|).
  void Record(int template_index, double abs_residual);

  /// Lock-free: reads the published per-template state, not the breaker
  /// itself. The serving hot path calls this per prediction, so it must
  /// never contend with Record's state-machine mutex; Record republishes
  /// after every transition. A reader may observe a state at most one
  /// in-flight Record stale — indistinguishable from the prediction
  /// having raced the record the other way.
  [[nodiscard]] BreakerState state(int template_index) const;
  /// sched::TemplateHealth: open breaker == degraded.
  [[nodiscard]] bool Degraded(int template_index) const override;

  /// Total breaker trips across all templates.
  [[nodiscard]] uint64_t trips() const;
  [[nodiscard]] uint64_t records() const;
  [[nodiscard]] int num_templates() const;

 private:
  /// Serializes the breaker state machines (the ingest-side write path);
  /// state() never takes it.
  mutable Mutex mutex_;
  std::vector<CircuitBreaker> breakers_ GUARDED_BY(mutex_);
  /// Per-template breaker state mirrored for lock-free readers; written
  /// under mutex_ after each Record, read with acquire by state(). The
  /// vector itself is sized once in the constructor; only the atomic
  /// elements mutate.
  std::vector<std::atomic<uint8_t>> published_;  // contender-lint: lock-free
  uint64_t records_ GUARDED_BY(mutex_) = 0;
};

}  // namespace contender::serve

#endif  // CONTENDER_SERVE_HEALTH_H_
