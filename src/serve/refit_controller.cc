#include "serve/refit_controller.h"

#include <algorithm>
#include <utility>

#include "util/failpoint.h"
#include "util/logging.h"

namespace contender::serve {

namespace {

// Chaos site: fails the step's model fit. The publish that follows a
// successful fit is one atomic swap, so a failed fit is the only way a
// triggered step can end with nothing published.
auto& kFitFailPoint = CONTENDER_DEFINE_FAILPOINT("serve.refit.fit");

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
  } else if (pending >= kDriftMinObservations && drift > kResidualThreshold) {
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

  // Candidate training set: the batch joins `observations_` only if the
  // refit succeeds. Until then everything runs on copies — the live
  // snapshot and the committed training set are untouched by any failure.
  std::vector<MixObservation> candidate = observations_;
  candidate.insert(candidate.end(), batch.observations.begin(),
                   batch.observations.end());

  const std::shared_ptr<const ModelSnapshot> live = service_->snapshot();
  StatusOr<ContenderPredictor> refit =
      kFitFailPoint.ShouldFail()
          ? StatusOr<ContenderPredictor>(
                Status::Internal("RefitController: injected fit failure"))
          : live->predictor().WithRefitTemplates(candidate,
                                                 step.refit_templates);
  if (!refit.ok()) {
    // Quarantine the batch: it broke the fit, so letting it rejoin the
    // training set would poison every future refit too.
    log_->Quarantine(std::move(batch.observations));
    failed_steps_.fetch_add(1, std::memory_order_relaxed);
    return refit.status();
  }

  observations_ = std::move(candidate);
  std::shared_ptr<const ModelSnapshot> next =
      ModelSnapshot::Create(std::move(*refit), live->version() + 1);
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
