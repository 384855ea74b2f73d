#include "core/spoiler_model.h"

namespace contender {

namespace {

/// Fits every reference template's growth model, index-aligned with
/// `profiles` (failed fits become errors in place, so callers can skip them
/// in deterministic order).
std::vector<StatusOr<SpoilerGrowthModel>> FitAllGrowthModels(
    const std::vector<TemplateProfile>& profiles,
    const std::vector<int>& train_mpls) {
  std::vector<StatusOr<SpoilerGrowthModel>> out;
  out.reserve(profiles.size());
  for (const TemplateProfile& p : profiles) {
    out.push_back(FitSpoilerGrowth(p, train_mpls));
  }
  return out;
}

}  // namespace

StatusOr<SpoilerGrowthModel> FitSpoilerGrowth(
    const TemplateProfile& profile, const std::vector<int>& train_mpls) {
  if (profile.isolated_latency.value() <= 0.0) {
    return Status::InvalidArgument(
        "FitSpoilerGrowth: non-positive isolated latency");
  }
  std::vector<double> x, y;
  for (int mpl : train_mpls) {
    units::Seconds latency;
    if (mpl <= 1) {
      latency = profile.isolated_latency;
    } else {
      auto it = profile.spoiler_latency.find(mpl);
      if (it == profile.spoiler_latency.end()) continue;
      latency = it->second;
    }
    x.push_back(static_cast<double>(mpl));
    y.push_back(latency / profile.isolated_latency);  // slowdown ratio
  }
  if (x.size() < 2) {
    return Status::FailedPrecondition(
        "FitSpoilerGrowth: need spoiler latencies at >= 2 MPLs");
  }
  auto fit = FitSimpleLinear(x, y);
  if (!fit.ok()) return fit.status();
  SpoilerGrowthModel model;
  model.slope = fit->slope;
  model.intercept = fit->intercept;
  model.r_squared = fit->r_squared;
  return model;
}

StatusOr<KnnSpoilerPredictor> KnnSpoilerPredictor::Fit(
    const std::vector<TemplateProfile>& reference_profiles,
    const Options& options) {
  const std::vector<int> train_mpls(kTrainMpls.begin(), kTrainMpls.end());
  std::vector<StatusOr<SpoilerGrowthModel>> growths =
      FitAllGrowthModels(reference_profiles, train_mpls);
  std::vector<Vector> features;
  std::vector<Vector> targets;
  for (size_t i = 0; i < reference_profiles.size(); ++i) {
    const StatusOr<SpoilerGrowthModel>& growth = growths[i];
    if (!growth.ok()) continue;
    const TemplateProfile& p = reference_profiles[i];
    features.push_back({p.working_set_bytes.value(), p.io_fraction.value()});
    targets.push_back({growth->slope, growth->intercept});
  }
  if (features.size() < static_cast<size_t>(options.k)) {
    return Status::FailedPrecondition(
        "KnnSpoilerPredictor: not enough reference templates");
  }
  KnnRegressor::Options knn_opts;
  knn_opts.k = options.k;
  knn_opts.normalize = true;
  auto knn = KnnRegressor::Fit(std::move(features), std::move(targets),
                               knn_opts);
  if (!knn.ok()) return knn.status();
  KnnSpoilerPredictor out;
  out.knn_.emplace(std::move(*knn));
  return out;
}

StatusOr<SpoilerGrowthModel> KnnSpoilerPredictor::PredictGrowthModel(
    const TemplateProfile& target) const {
  if (!knn_.has_value()) {
    return Status::FailedPrecondition("KnnSpoilerPredictor: not fitted");
  }
  const Vector coeffs = knn_->Predict(
      {target.working_set_bytes.value(), target.io_fraction.value()});
  SpoilerGrowthModel model;
  model.slope = coeffs[0];
  model.intercept = coeffs[1];
  return model;
}

StatusOr<units::Seconds> KnnSpoilerPredictor::Predict(
    const TemplateProfile& target, units::Mpl mpl) const {
  auto model = PredictGrowthModel(target);
  if (!model.ok()) return model.status();
  return model->PredictLatency(mpl, target.isolated_latency);
}

StatusOr<IoTimeSpoilerPredictor> IoTimeSpoilerPredictor::Fit(
    const std::vector<TemplateProfile>& reference_profiles,
    const std::vector<int>& train_mpls) {
  std::vector<StatusOr<SpoilerGrowthModel>> growths =
      FitAllGrowthModels(reference_profiles, train_mpls);
  std::vector<double> pt, slopes, intercepts;
  for (size_t i = 0; i < reference_profiles.size(); ++i) {
    const StatusOr<SpoilerGrowthModel>& growth = growths[i];
    if (!growth.ok()) continue;
    const TemplateProfile& p = reference_profiles[i];
    pt.push_back(p.io_fraction.value());
    slopes.push_back(growth->slope);
    intercepts.push_back(growth->intercept);
  }
  if (pt.size() < 3) {
    return Status::FailedPrecondition(
        "IoTimeSpoilerPredictor: not enough reference templates");
  }
  IoTimeSpoilerPredictor out;
  auto slope_fit = FitSimpleLinear(pt, slopes);
  if (!slope_fit.ok()) return slope_fit.status();
  out.slope_fit_ = *slope_fit;
  auto intercept_fit = FitSimpleLinear(pt, intercepts);
  if (!intercept_fit.ok()) return intercept_fit.status();
  out.intercept_fit_ = *intercept_fit;
  return out;
}

StatusOr<units::Seconds> IoTimeSpoilerPredictor::Predict(
    const TemplateProfile& target, units::Mpl mpl) const {
  SpoilerGrowthModel model;
  model.slope = slope_fit_.Predict(target.io_fraction.value());
  model.intercept = intercept_fit_.Predict(target.io_fraction.value());
  return model.PredictLatency(mpl, target.isolated_latency);
}

}  // namespace contender
