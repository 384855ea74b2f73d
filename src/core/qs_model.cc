#include "core/qs_model.h"

#include "core/continuum.h"
#include "math/regression.h"

namespace contender {

StatusOr<QsModel> FitQsModel(
    const std::vector<units::Cqi>& cqi_values,
    const std::vector<units::ContinuumPoint>& continuum_points) {
  std::vector<double> x, y;
  x.reserve(cqi_values.size());
  y.reserve(continuum_points.size());
  for (units::Cqi c : cqi_values) x.push_back(c.value());
  for (units::ContinuumPoint p : continuum_points) y.push_back(p.value());
  auto fit = FitSimpleLinear(x, y);
  if (!fit.ok()) return fit.status();
  QsModel model;
  model.slope = fit->slope;
  model.intercept = fit->intercept;
  model.r_squared = fit->r_squared;
  return model;
}

StatusOr<QsTrainingSet> BuildQsTrainingSet(
    const std::vector<TemplateProfile>& profiles,
    const ScanTimes& scan_times,
    const std::vector<MixObservation>& observations, int primary_index,
    units::Mpl mpl, CqiVariant variant) {
  if (primary_index < 0 ||
      static_cast<size_t>(primary_index) >= profiles.size()) {
    return Status::InvalidArgument("BuildQsTrainingSet: bad primary index");
  }
  const TemplateProfile& primary =
      profiles[static_cast<size_t>(primary_index)];
  auto lmax_it = primary.spoiler_latency.find(mpl.value());
  if (lmax_it == primary.spoiler_latency.end()) {
    return Status::FailedPrecondition(
        "BuildQsTrainingSet: no spoiler latency at requested MPL");
  }
  CONTENDER_ASSIGN_OR_RETURN(
      const units::LatencyRange range,
      units::LatencyRange::Make(primary.isolated_latency, lmax_it->second));

  const CqiKernel kernel(profiles, scan_times);
  const std::span<const size_t> primary_slots =
      kernel.PrimarySlots(primary_index);
  PreparedMix mix;
  QsTrainingSet set;
  for (const MixObservation& obs : observations) {
    if (obs.primary_index != primary_index || obs.mpl != mpl.value()) continue;
    if (ExceedsContinuum(obs.latency, range.max())) {
      ++set.dropped_outliers;
      continue;
    }
    auto cqi = kernel.Compute(primary_slots, obs.concurrent_indices, variant,
                              &mix);
    if (!cqi.ok()) return cqi.status();
    auto point = ContinuumPoint(obs.latency, range);
    if (!point.ok()) return point.status();
    set.cqi.push_back(*cqi);
    set.continuum.push_back(*point);
    set.latency.push_back(obs.latency);
  }
  return set;
}

StatusOr<std::map<int, QsModel>> FitReferenceModels(
    const std::vector<TemplateProfile>& profiles,
    const ScanTimes& scan_times,
    const std::vector<MixObservation>& observations, units::Mpl mpl,
    CqiVariant variant) {
  std::map<int, QsModel> models;
  for (size_t t = 0; t < profiles.size(); ++t) {
    auto set = BuildQsTrainingSet(profiles, scan_times, observations,
                                  static_cast<int>(t), mpl, variant);
    if (!set.ok()) continue;
    if (set->cqi.size() < 3) continue;
    auto model = FitQsModel(set->cqi, set->continuum);
    if (!model.ok()) continue;
    models[static_cast<int>(t)] = *model;
  }
  return models;
}

}  // namespace contender
