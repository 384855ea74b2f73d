#include "serve/observation_log.h"

#include <cmath>
#include <utility>

#include "core/continuum.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace contender::serve {

namespace {

// Chaos site: a fire rejects the (otherwise valid) record as if ingest
// itself had failed, exercising callers' rejection handling.
auto& kIngestFailPoint =
    CONTENDER_DEFINE_FAILPOINT("serve.observation_log.ingest");

}  // namespace

ObservationLog::ObservationLog(const PredictionService* service)
    : service_(service) {
  CONTENDER_CHECK(service_ != nullptr);
}

StatusOr<IngestResult> ObservationLog::Ingest(
    const MixObservation& observation) {
  // Epoch-pinned view of the live snapshot: no lock, no refcount bump.
  const SnapshotHolder::View view = service_->holder().Acquire();
  const int n = view->num_templates();
  auto reject = [this](Status status) -> StatusOr<IngestResult> {
    MutexLock lock(&mutex_);
    ++rejected_;
    return status;
  };
  if (observation.primary_index < 0 || observation.primary_index >= n) {
    return reject(
        Status::InvalidArgument("ObservationLog: bad primary index"));
  }
  for (int c : observation.concurrent_indices) {
    if (c < 0 || c >= n) {
      return reject(
          Status::InvalidArgument("ObservationLog: bad concurrent index"));
    }
  }
  if (observation.mpl !=
      static_cast<int>(observation.concurrent_indices.size()) + 1) {
    return reject(Status::InvalidArgument(
        "ObservationLog: mpl must equal concurrent_indices.size() + 1"));
  }
  const double latency = observation.latency.value();
  if (!(latency > 0.0) || !std::isfinite(latency)) {
    return reject(Status::InvalidArgument(
        "ObservationLog: latency must be positive and finite"));
  }
  // Probe after validation so chaos runs exercise the failure path for
  // records that would otherwise have been accepted.
  if (kIngestFailPoint.ShouldFail()) {
    return reject(Status::Internal(
        "ObservationLog: injected ingest failure (chaos)"));
  }

  // Residual against the live snapshot: observed vs predicted continuum
  // point on the template's [l_min, l_max] range at this MPL. When the
  // profile carries no spoiler latency there, degrade to the relative
  // latency error so the drift trigger still sees the record.
  IngestResult result;
  result.snapshot_version = view->version();
  const TieredPrediction scored = view->predictor().PredictInMix(
      observation.primary_index, observation.concurrent_indices);
  const units::Seconds predicted = scored.latency;
  const TemplateProfile& profile =
      view->predictor()
          .profiles()[static_cast<size_t>(observation.primary_index)];
  auto lmax_it = profile.spoiler_latency.find(observation.mpl);
  bool have_range = false;
  if (lmax_it != profile.spoiler_latency.end()) {
    auto range =
        units::LatencyRange::Make(profile.isolated_latency, lmax_it->second);
    if (range.ok()) {
      auto c_obs = ContinuumPoint(observation.latency, *range);
      auto c_pred = ContinuumPoint(predicted, *range);
      if (c_obs.ok() && c_pred.ok()) {
        result.continuum_residual = c_obs->value() - c_pred->value();
        have_range = true;
      }
    }
  }
  if (!have_range) {
    result.continuum_residual =
        (observation.latency - predicted) / predicted;
  }

  {
    MutexLock lock(&mutex_);
    if (pending_.size() >= kPendingCapacity) {
      ++rejected_;
      ++overflow_dropped_;
      return Status::ResourceExhausted(
          "ObservationLog: pending buffer full (controller not draining?)");
    }
    pending_.push_back({observation, std::abs(result.continuum_residual)});
    ++ingested_;
  }
  // Feed the accepted residual to the template's circuit breaker outside
  // the log mutex (the tracker has its own lock; never nest the two). The
  // breaker only gates tier 0, so only a tier-0 answer's residual is
  // evidence about it: a record scored below tier 0 (no QS model at its
  // MPL, or a fired ladder fail point) must not quarantine the model.
  if (service_->health() != nullptr &&
      scored.tier == DegradationTier::kFullModel) {
    service_->health()->Record(observation.primary_index,
                               std::abs(result.continuum_residual));
  }
  return result;
}

ObservationBatch ObservationLog::Drain() {
  std::vector<PendingRecord> taken;
  {
    MutexLock lock(&mutex_);
    taken.swap(pending_);
  }
  ObservationBatch batch;
  SummaryStats replay;
  batch.observations.reserve(taken.size());
  for (PendingRecord& record : taken) {
    replay.Add(record.abs_residual);
    batch.observations.push_back(std::move(record.observation));
  }
  batch.mean_abs_residual = replay.mean();
  return batch;
}

void ObservationLog::Quarantine(std::vector<MixObservation> observations) {
  MutexLock lock(&mutex_);
  quarantined_ += observations.size();
  for (MixObservation& obs : observations) {
    if (dead_letter_.size() >= kDeadLetterCapacity) {
      ++dead_letter_dropped_;
      continue;
    }
    dead_letter_.push_back(std::move(obs));
  }
}

std::vector<MixObservation> ObservationLog::TakeDeadLetter() {
  MutexLock lock(&mutex_);
  std::vector<MixObservation> taken = std::move(dead_letter_);
  dead_letter_.clear();
  return taken;
}

size_t ObservationLog::pending() const {
  MutexLock lock(&mutex_);
  return pending_.size();
}

double ObservationLog::pending_mean_abs_residual() const {
  SummaryStats replay;
  MutexLock lock(&mutex_);
  for (const PendingRecord& record : pending_) {
    replay.Add(record.abs_residual);
  }
  return replay.mean();
}

uint64_t ObservationLog::ingested() const {
  MutexLock lock(&mutex_);
  return ingested_;
}

uint64_t ObservationLog::rejected() const {
  MutexLock lock(&mutex_);
  return rejected_;
}

uint64_t ObservationLog::overflow_dropped() const {
  MutexLock lock(&mutex_);
  return overflow_dropped_;
}

uint64_t ObservationLog::quarantined() const {
  MutexLock lock(&mutex_);
  return quarantined_;
}

size_t ObservationLog::dead_letter_pending() const {
  MutexLock lock(&mutex_);
  return dead_letter_.size();
}

uint64_t ObservationLog::dead_letter_dropped() const {
  MutexLock lock(&mutex_);
  return dead_letter_dropped_;
}

}  // namespace contender::serve
