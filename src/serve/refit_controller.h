// The refit control loop closing serving back onto training (paper §6:
// the QS models are cheap enough to maintain incrementally). Each Step():
//
//   1. reads the ObservationLog's pending count and mean |continuum
//      residual|;
//   2. fires when enough new observations accumulated OR the residual
//      drifted past the threshold;
//   3. drains the pending batch into the cumulative training set, refits
//      the per-template QS models of the templates the batch touched on a
//      COPY of the live predictor (serving continues on the old snapshot
//      throughout), and
//   4. atomically hot-swaps the new snapshot into the service.
//
// Nothing happens except inside an explicit Step() call, the one way to
// drive a refit, and a step's outcome is a pure function of (the
// observations ingested so far, the prior steps) — so cold-replaying the
// same ingest/step sequence reproduces every snapshot bit-exactly.
//
// Failure handling (DESIGN.md §11): the refit runs entirely on a copy, so
// a failing fit can never corrupt the live snapshot. The fit is a pure
// function of (training set, touched templates), so a failure would only
// repeat on a second attempt: each step fits once, and a failing step
// quarantines its batch into the log's dead-letter buffer — observations
// that break the fit must not silently rejoin the training set.

#ifndef CONTENDER_SERVE_REFIT_CONTROLLER_H_
#define CONTENDER_SERVE_REFIT_CONTROLLER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/template_profile.h"
#include "serve/observation_log.h"
#include "serve/service.h"
#include "util/mutex.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace contender::serve {

struct RefitOptions {
  /// Count trigger: refit once this many records are pending.
  size_t min_new_observations = 24;
  /// Drift trigger: refit when the pending records' mean |continuum
  /// residual| exceeds this (with at least `drift_min_observations`
  /// pending, so one noisy record cannot force a refit).
  double residual_threshold = 0.10;
  size_t drift_min_observations = 4;
};

/// What one Step() did.
struct RefitStep {
  /// Why the step fired (or "none" when it did not).
  enum class Trigger { kNone, kCount, kDrift };
  Trigger trigger = Trigger::kNone;
  bool refit = false;
  /// Version of the snapshot published by this step (0 when !refit).
  uint64_t published_version = 0;
  /// Pending records consumed into the training set.
  size_t observations_consumed = 0;
  /// Templates whose QS models were refit (sorted, deduplicated).
  std::vector<int> refit_templates;
};

/// Drives refits for one (service, log) pair.
class RefitController {
 public:
  /// `base_observations` is the training set the live snapshot's models
  /// were fit on; streamed batches are appended to it. `service` and `log`
  /// must outlive the controller.
  RefitController(PredictionService* service, ObservationLog* log,
                  std::vector<MixObservation> base_observations,
                  const RefitOptions& options = {});

  RefitController(const RefitController&) = delete;
  RefitController& operator=(const RefitController&) = delete;

  /// One deterministic control step (see file comment). Thread-safe; steps
  /// serialize. A non-OK status means the step's one fit failed: the old
  /// snapshot stays live, nothing partial is ever published, and the
  /// drained batch is quarantined into the log's dead-letter buffer
  /// instead of joining the training set (it is suspected of poisoning
  /// the fit).
  StatusOr<RefitStep> Step();

  /// Completed refits (snapshots published by this controller).
  [[nodiscard]] uint64_t refits() const {
    return refits_.load(std::memory_order_relaxed);
  }
  /// Triggered steps whose refit failed (their batches are in the log's
  /// dead-letter buffer).
  [[nodiscard]] uint64_t failed_steps() const {
    return failed_steps_.load(std::memory_order_relaxed);
  }
  /// Observations in the cumulative training set (base + consumed).
  [[nodiscard]] size_t training_set_size() const;

 private:
  PredictionService* const service_;
  ObservationLog* const log_;
  const RefitOptions options_;

  mutable Mutex step_mutex_;  // serializes Step()
  /// Cumulative training set: base + successfully refit batches.
  std::vector<MixObservation> observations_ GUARDED_BY(step_mutex_);
  std::atomic<uint64_t> refits_{0};
  std::atomic<uint64_t> failed_steps_{0};
};

}  // namespace contender::serve

#endif  // CONTENDER_SERVE_REFIT_CONTROLLER_H_
