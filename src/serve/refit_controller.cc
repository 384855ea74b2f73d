#include "serve/refit_controller.h"

#include <algorithm>
#include <utility>

#include "util/failpoint.h"
#include "util/logging.h"

namespace contender::serve {

namespace {

// Chaos sites: kFit fails the (retryable) model fit, kPublish aborts the
// step after a successful fit but before the snapshot swap — the publish
// itself is atomic, so the only injectable publish failure is "never
// happened", which is exactly what kAborted reports.
auto& kFitFailPoint = CONTENDER_DEFINE_FAILPOINT("serve.refit.fit");
auto& kPublishFailPoint = CONTENDER_DEFINE_FAILPOINT("serve.refit.publish");

}  // namespace

RefitController::RefitController(PredictionService* service,
                                 ObservationLog* log,
                                 std::vector<MixObservation>
                                     base_observations,
                                 const RefitOptions& options)
    : service_(service),
      log_(log),
      options_(options),
      observations_(std::move(base_observations)) {
  CONTENDER_CHECK(service_ != nullptr);
  CONTENDER_CHECK(log_ != nullptr);
}

StatusOr<RefitStep> RefitController::Step() {
  MutexLock lock(&step_mutex_);
  RefitStep step;

  const size_t pending = log_->pending();
  const double drift = log_->pending_mean_abs_residual();
  if (pending >= options_.min_new_observations) {
    step.trigger = RefitStep::Trigger::kCount;
  } else if (pending >= options_.drift_min_observations &&
             drift > options_.residual_threshold) {
    step.trigger = RefitStep::Trigger::kDrift;
  } else {
    return step;  // nothing to do; not an error
  }

  ObservationBatch batch = log_->Drain();
  step.observations_consumed = batch.observations.size();
  for (const MixObservation& obs : batch.observations) {
    step.refit_templates.push_back(obs.primary_index);
  }
  std::sort(step.refit_templates.begin(), step.refit_templates.end());
  step.refit_templates.erase(std::unique(step.refit_templates.begin(),
                                         step.refit_templates.end()),
                             step.refit_templates.end());
  const uint64_t step_index = triggered_steps_++;

  // Candidate training set: the batch joins `observations_` only if the
  // refit succeeds. Until then everything runs on copies — the live
  // snapshot and the committed training set are untouched by any failure.
  std::vector<MixObservation> candidate = observations_;
  candidate.insert(candidate.end(), batch.observations.begin(),
                   batch.observations.end());

  const std::shared_ptr<const ModelSnapshot> live = service_->snapshot();
  std::shared_ptr<const ModelSnapshot> next;
  auto attempt = [&]() -> Status {
    next = nullptr;
    if (kFitFailPoint.ShouldFail()) {
      return Status::Internal("RefitController: injected fit failure");
    }
    auto refit = live->predictor().WithRefitTemplates(candidate,
                                                      step.refit_templates);
    if (!refit.ok()) return refit.status();
    if (kPublishFailPoint.ShouldFail()) {
      // The swap in Publish() is atomic, so a "publish failure" can only
      // mean the new snapshot never went live — deliberate abandonment,
      // which kAborted marks as non-retryable.
      return Status::Aborted("RefitController: injected publish abort");
    }
    next = ModelSnapshot::Create(std::move(*refit), live->version() + 1);
    return Status::OK();
  };
  const Status fit_status = RetryWithBackoff(
      options_.refit_retry, options_.retry_jitter_seed ^ step_index,
      options_.clock != nullptr ? options_.clock : Clock::System(), attempt);
  if (!fit_status.ok()) {
    // Quarantine the batch: it broke the fit repeatedly, so letting it
    // rejoin the training set would poison every future refit too.
    log_->Quarantine(std::move(batch.observations));
    failed_steps_.fetch_add(1, std::memory_order_relaxed);
    return fit_status;
  }

  observations_ = std::move(candidate);
  step.published_version = next->version();
  service_->Publish(std::move(next));
  step.refit = true;
  refits_.fetch_add(1, std::memory_order_relaxed);
  return step;
}

size_t RefitController::training_set_size() const {
  MutexLock lock(&step_mutex_);
  return observations_.size();
}

}  // namespace contender::serve
