#include "core/predictor.h"

#include <algorithm>
#include <utility>

#include "core/continuum.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace contender {

namespace {

// Chaos sites: a fire skips the corresponding ladder tier, as if that
// tier's model had failed.
auto& kFullModelFailPoint = CONTENDER_DEFINE_FAILPOINT("core.ladder.full_model");
auto& kTransferFailPoint = CONTENDER_DEFINE_FAILPOINT("core.ladder.transfer");

Status NoMeasuredSpoilerLatency() {
  return Status::FailedPrecondition(
      "profile has no measured spoiler latency at this MPL");
}

/// The QS model's latency for `cqi`, on the continuum [l_min, l_max].
units::Seconds LatencyFromModel(const QsModel& qs, units::Cqi cqi,
                                const units::LatencyRange& range) {
  // Predictions are clamped to the continuum with a small margin: positive
  // interactions can push latency slightly below l_min and steady-state
  // artifacts slightly above l_max (paper Section 6.1), but a transferred
  // model must not extrapolate beyond the meaningful range.
  const units::ContinuumPoint point(
      std::clamp(qs.PredictContinuum(cqi).value(), -0.25, 1.25));
  const units::Seconds latency = LatencyFromContinuum(point, range);
  // A concurrent execution can beat isolation through shared work, but
  // never by more than a modest margin.
  return std::max(latency, 0.5 * range.min());
}

}  // namespace

const char* DegradationTierName(DegradationTier tier) {
  switch (tier) {
    case DegradationTier::kFullModel:
      return "full-model";
    case DegradationTier::kTransferredQs:
      return "transferred-qs";
    case DegradationTier::kIsolatedHeuristic:
      return "isolated-heuristic";
  }
  return "unknown";
}

StatusOr<ContenderPredictor> ContenderPredictor::Train(
    std::vector<TemplateProfile> profiles, ScanTimes scan_times,
    const std::vector<MixObservation>& observations, const Options& options) {
  if (profiles.size() < 4) {
    return Status::InvalidArgument(
        "ContenderPredictor: need >= 4 known templates");
  }
  ContenderPredictor p;
  p.options_ = options;
  p.profiles_ = std::move(profiles);
  p.scan_times_ = std::move(scan_times);
  p.kernel_ = CqiKernel(p.profiles_, p.scan_times_);

  // The per-MPL fits are independent; fan them across the pool and merge in
  // MPL order so the trained predictor is bit-identical for any pool width.
  ThreadPool pool(options.train_threads <= 0 ? ThreadPool::DefaultThreads()
                                             : options.train_threads);
  using MplFit = std::pair<std::map<int, QsModel>, QsTransferModel>;
  std::vector<StatusOr<MplFit>> fits = pool.Map(
      options.mpls.size(), [&p, &observations, &options](size_t k)
          -> StatusOr<MplFit> {
        const units::Mpl mpl(options.mpls[k]);
        auto models = FitReferenceModels(p.profiles_, p.scan_times_,
                                         observations, mpl);
        if (!models.ok()) return models.status();
        if (models->empty()) {
          return Status::FailedPrecondition(
              "ContenderPredictor: no reference QS models at an MPL; "
              "missing observations?");
        }
        StatusOr<QsTransferModel> transfer =
            options.transfer_feature == TransferFeature::kIsolatedLatency
                ? QsTransferModel::Fit(p.profiles_, *models)
                : QsTransferModel::FitOnFeature(
                      p.profiles_, *models, [mpl](const TemplateProfile& t) {
                        const double slowdown =
                            t.spoiler_latency.at(mpl.value()) /
                            t.isolated_latency;
                        return 1.0 / std::max(slowdown - 1.0, 0.05);
                      });
        if (!transfer.ok()) return transfer.status();
        return std::make_pair(std::move(*models), std::move(*transfer));
      });
  for (size_t k = 0; k < options.mpls.size(); ++k) {
    if (!fits[k].ok()) return fits[k].status();
    const int mpl = options.mpls[k];
    p.SetReferenceModels(mpl, fits[k]->first);
    p.transfer_models_.emplace(mpl, std::move(fits[k]->second));
  }

  auto knn = KnnSpoilerPredictor::Fit(p.profiles_,
                                      KnnSpoilerPredictor::Options{});
  if (!knn.ok()) return knn.status();
  p.knn_spoiler_.emplace(std::move(*knn));
  return p;
}

StatusOr<ContenderPredictor> ContenderPredictor::WithRefitTemplates(
    const std::vector<MixObservation>& observations,
    const std::vector<int>& template_indices) const {
  for (int t : template_indices) {
    if (t < 0 || static_cast<size_t>(t) >= profiles_.size()) {
      return Status::InvalidArgument(
          "WithRefitTemplates: bad template index");
    }
  }
  ContenderPredictor refit = *this;
  for (const int mpl : options_.mpls) {
    std::vector<ReferenceCell>& row =
        refit.reference_cells_[static_cast<size_t>(mpl)];
    for (int t : template_indices) {
      auto set = BuildQsTrainingSet(profiles_, scan_times_, observations, t,
                                    units::Mpl(mpl));
      // Keep the existing model when the refreshed set cannot support a
      // fit: refitting must never lose coverage the snapshot already had.
      if (!set.ok() || set->cqi.size() < 3) continue;
      auto model = FitQsModel(set->cqi, set->continuum);
      if (!model.ok()) continue;
      row[static_cast<size_t>(t)].model = *model;
    }
  }
  return refit;
}

void ContenderPredictor::SetReferenceModels(
    int mpl, const std::map<int, QsModel>& models) {
  CONTENDER_CHECK(mpl >= 0) << "reference models at MPL " << mpl;
  const size_t m = static_cast<size_t>(mpl);
  if (m >= reference_cells_.size()) reference_cells_.resize(m + 1);
  std::vector<ReferenceCell>& row = reference_cells_[m];
  row.assign(profiles_.size(), ReferenceCell{});
  for (size_t t = 0; t < profiles_.size(); ++t) {
    auto it = profiles_[t].spoiler_latency.find(mpl);
    if (it == profiles_[t].spoiler_latency.end()) continue;
    row[t].l_max = it->second;
    auto range =
        units::LatencyRange::Make(profiles_[t].isolated_latency, it->second);
    if (range.ok()) row[t].range = *range;
  }
  for (const auto& [t, model] : models) {
    row[static_cast<size_t>(t)].model = model;
  }
}

const std::vector<ContenderPredictor::ReferenceCell>*
ContenderPredictor::ReferenceRow(units::Mpl mpl) const {
  const size_t m = static_cast<size_t>(mpl.value());
  if (mpl.value() < 0 || m >= reference_cells_.size() ||
      reference_cells_[m].empty()) {
    return nullptr;
  }
  return &reference_cells_[m];
}

StatusOr<std::map<int, QsModel>> ContenderPredictor::ReferenceModels(
    units::Mpl mpl) const {
  const std::vector<ReferenceCell>* row = ReferenceRow(mpl);
  if (row == nullptr) {
    return Status::NotFound("no reference models at this MPL");
  }
  std::map<int, QsModel> models;
  for (size_t t = 0; t < row->size(); ++t) {
    if ((*row)[t].model) models.emplace(static_cast<int>(t), *(*row)[t].model);
  }
  return models;
}

StatusOr<QsTransferModel> ContenderPredictor::TransferModel(
    units::Mpl mpl) const {
  auto it = transfer_models_.find(mpl.value());
  if (it == transfer_models_.end()) {
    return Status::NotFound("no transfer model at this MPL");
  }
  return it->second;
}

StatusOr<units::Seconds> ContenderPredictor::PredictSpoilerLatency(
    const TemplateProfile& profile, units::Mpl mpl) const {
  return knn_spoiler_->Predict(profile, mpl);
}

StatusOr<units::Seconds> ContenderPredictor::ResolveSpoiler(
    const TemplateProfile& profile, units::Mpl mpl,
    SpoilerSource source) const {
  if (source == SpoilerSource::kMeasured) {
    auto it = profile.spoiler_latency.find(mpl.value());
    if (it == profile.spoiler_latency.end()) return NoMeasuredSpoilerLatency();
    return it->second;
  }
  return PredictSpoilerLatency(profile, mpl);
}

StatusOr<units::Seconds> ContenderPredictor::PredictWithModel(
    const TemplateProfile& primary, const QsModel& qs,
    std::span<const int> concurrent, units::Seconds l_max) const {
  // Checked ahead of the kernel so PredictKnown and PredictNew keep their
  // own message for a bad co-runner.
  for (int c : concurrent) {
    if (c < 0 || static_cast<size_t>(c) >= profiles_.size()) {
      return Status::InvalidArgument("bad concurrent template index");
    }
  }
  PrimarySlotBuffer slots;
  kernel_.PrimarySlots(primary, &slots);
  PreparedMix mix;
  CONTENDER_ASSIGN_OR_RETURN(
      const units::Cqi cqi,
      kernel_.Compute(slots.view(), concurrent, CqiVariant::kFull, &mix));
  CONTENDER_ASSIGN_OR_RETURN(
      const units::LatencyRange range,
      units::LatencyRange::Make(primary.isolated_latency, l_max));
  return LatencyFromModel(qs, cqi, range);
}

StatusOr<units::Seconds> ContenderPredictor::PredictKnown(
    int template_index, const std::vector<int>& concurrent_indices) const {
  if (template_index < 0 ||
      static_cast<size_t>(template_index) >= profiles_.size()) {
    return Status::InvalidArgument("unknown template index");
  }
  const units::Mpl mpl(static_cast<int>(concurrent_indices.size()) + 1);
  const std::vector<ReferenceCell>* row = ReferenceRow(mpl);
  if (row == nullptr) {
    return Status::NotFound("no reference models at this MPL");
  }
  const ReferenceCell& cell = (*row)[static_cast<size_t>(template_index)];
  if (!cell.model) {
    return Status::NotFound("no QS model for this template at this MPL");
  }
  if (!cell.l_max) return NoMeasuredSpoilerLatency();
  return PredictWithModel(profiles_[static_cast<size_t>(template_index)],
                          *cell.model, concurrent_indices, *cell.l_max);
}

StatusOr<ContenderPredictor::ModelAndBound>
ContenderPredictor::TransferredModel(const TemplateProfile& profile,
                                     units::Mpl mpl,
                                     SpoilerSource source) const {
  auto transfer_it = transfer_models_.find(mpl.value());
  if (transfer_it == transfer_models_.end()) {
    return Status::NotFound("no transfer model at this MPL");
  }
  CONTENDER_ASSIGN_OR_RETURN(const units::Seconds l_max,
                             ResolveSpoiler(profile, mpl, source));
  if (options_.transfer_feature == TransferFeature::kIsolatedLatency) {
    return ModelAndBound{transfer_it->second.PredictFromIsolatedLatency(
                             profile.isolated_latency),
                         l_max};
  }
  const double slowdown = l_max / profile.isolated_latency;
  return ModelAndBound{transfer_it->second.PredictFromFeatureValue(
                           1.0 / std::max(slowdown - 1.0, 0.05)),
                       l_max};
}

StatusOr<units::Seconds> ContenderPredictor::PredictNew(
    const TemplateProfile& new_profile,
    const std::vector<int>& concurrent_indices,
    SpoilerSource spoiler_source) const {
  const units::Mpl mpl(static_cast<int>(concurrent_indices.size()) + 1);
  CONTENDER_ASSIGN_OR_RETURN(
      const ModelAndBound model,
      TransferredModel(new_profile, mpl, spoiler_source));
  return PredictWithModel(new_profile, model.qs, concurrent_indices,
                          model.l_max);
}

void ContenderPredictor::PrepareMix(std::span<const int> concurrent,
                                    PreparedMix* mix) const {
  for (int c : concurrent) {
    CONTENDER_CHECK(c >= 0 && static_cast<size_t>(c) < profiles_.size())
        << "PrepareMix: unknown co-runner index " << c;
  }
  kernel_.Prepare(concurrent, /*canonical=*/true, mix);
}

TieredPrediction ContenderPredictor::PredictInMix(
    int template_index, std::span<const int> concurrent,
    bool allow_full_model) const {
  PreparedMix mix;
  PrepareMix(concurrent, &mix);
  return PredictInMix(template_index, mix, allow_full_model);
}

TieredPrediction ContenderPredictor::PredictInMix(
    int template_index, std::initializer_list<int> concurrent,
    bool allow_full_model) const {
  return PredictInMix(template_index, std::span<const int>(concurrent),
                      allow_full_model);
}

TieredPrediction ContenderPredictor::PredictInMix(
    int template_index, const PreparedMix& mix, bool allow_full_model) const {
  CONTENDER_CHECK(template_index >= 0 &&
                  static_cast<size_t>(template_index) < profiles_.size())
      << "PredictInMix: unknown template index " << template_index;
  const TemplateProfile& profile =
      profiles_[static_cast<size_t>(template_index)];
  // MPL 1: the isolated latency IS the model's answer, not a degradation.
  // Short-circuit before any fail-point probe so disarmed and armed runs
  // agree on empty mixes.
  if (mix.empty()) {
    return {profile.isolated_latency, DegradationTier::kFullModel};
  }
  const units::Mpl mpl(static_cast<int>(mix.size()) + 1);
  const std::span<const size_t> primary =
      kernel_.PrimarySlots(template_index);
  // With a co-runner whose l_min is not positive no tier has a CQI.
  const bool scorable = mix.latencies_positive();
  if (allow_full_model && !kFullModelFailPoint.ShouldFail()) {
    const std::vector<ReferenceCell>* row = ReferenceRow(mpl);
    const ReferenceCell* cell =
        row == nullptr ? nullptr : &(*row)[static_cast<size_t>(template_index)];
    if (scorable && cell != nullptr && cell->model && cell->range) {
      return {LatencyFromModel(*cell->model,
                               kernel_.Score(primary, mix, CqiVariant::kFull),
                               *cell->range),
              DegradationTier::kFullModel};
    }
  }
  if (!kTransferFailPoint.ShouldFail() && scorable) {
    auto model =
        TransferredModel(profile, mpl, SpoilerSource::kKnnPredicted);
    if (model.ok()) {
      auto range =
          units::LatencyRange::Make(profile.isolated_latency, model->l_max);
      if (range.ok()) {
        return {LatencyFromModel(
                    model->qs, kernel_.Score(primary, mix, CqiVariant::kFull),
                    *range),
                DegradationTier::kTransferredQs};
      }
    }
  }
  return {profile.isolated_latency, DegradationTier::kIsolatedHeuristic};
}

StatusOr<units::Seconds> ContenderPredictor::PredictNewWithKnownSlope(
    const TemplateProfile& new_profile,
    const std::vector<int>& concurrent_indices, double known_slope,
    SpoilerSource spoiler_source) const {
  const units::Mpl mpl(static_cast<int>(concurrent_indices.size()) + 1);
  auto transfer_it = transfer_models_.find(mpl.value());
  if (transfer_it == transfer_models_.end()) {
    return Status::NotFound("no transfer model at this MPL");
  }
  const QsModel qs =
      transfer_it->second.PredictInterceptFromSlope(known_slope);
  auto l_max = ResolveSpoiler(new_profile, mpl, spoiler_source);
  if (!l_max.ok()) return l_max.status();
  return PredictWithModel(new_profile, qs, concurrent_indices, *l_max);
}

}  // namespace contender
