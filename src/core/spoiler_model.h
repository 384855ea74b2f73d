// Spoiler-latency models (paper §5.5): per-template linear growth in MPL,
// and two predictors of a *new* template's spoiler latency from isolated
// statistics alone — Contender's KNN over (working-set size, I/O fraction)
// and the I/O-Time regression baseline.

#ifndef CONTENDER_CORE_SPOILER_MODEL_H_
#define CONTENDER_CORE_SPOILER_MODEL_H_

#include <array>
#include <map>
#include <optional>
#include <vector>

#include "core/template_profile.h"
#include "math/regression.h"
#include "ml/knn.h"
#include "util/statusor.h"
#include "util/units.h"

namespace contender {

/// l_max(n) = µ · n + b for one template (Eq. 8). To compare templates of
/// different weights the growth model is fit on the slowdown ratio
/// l_max(n) / l_min, which is scale-independent (§5.5).
struct SpoilerGrowthModel {
  double slope = 0.0;      ///< slowdown per MPL step
  double intercept = 0.0;  ///< slowdown at MPL 0 (extrapolated)
  double r_squared = 0.0;

  /// Predicted spoiler latency at `mpl` for a template with the given
  /// isolated latency.
  [[nodiscard]] units::Seconds PredictLatency(
      units::Mpl mpl, units::Seconds isolated_latency) const {
    return (slope * static_cast<double>(mpl.value()) + intercept) *
           isolated_latency;
  }
};

/// Fits the growth model from measured spoiler latencies. MPL 1 is treated
/// as the isolated latency. Requires >= 2 distinct MPLs.
StatusOr<SpoilerGrowthModel> FitSpoilerGrowth(
    const TemplateProfile& profile, const std::vector<int>& train_mpls);

/// Contender's constant-time predictor: KNN over (working-set size, I/O
/// fraction) averaging the growth-model coefficients of the k nearest known
/// templates (§5.5).
class KnnSpoilerPredictor {
 public:
  struct Options {
    int k = 3;
  };

  /// MPLs each reference template's growth model is fit on.
  static constexpr std::array<int, 5> kTrainMpls = {1, 2, 3, 4, 5};

  /// Fits one growth model per reference template.
  static StatusOr<KnnSpoilerPredictor> Fit(
      const std::vector<TemplateProfile>& reference_profiles,
      const Options& options);

  /// Predicted l_max of `target` at `mpl` using only its isolated stats.
  StatusOr<units::Seconds> Predict(const TemplateProfile& target,
                                   units::Mpl mpl) const;

  /// The averaged growth coefficients for a target (for diagnostics).
  StatusOr<SpoilerGrowthModel> PredictGrowthModel(
      const TemplateProfile& target) const;

 private:
  KnnSpoilerPredictor() = default;
  std::optional<KnnRegressor> knn_;
};

/// The I/O-Time baseline (§6.4): both growth coefficients regressed on the
/// isolated I/O fraction p_t.
class IoTimeSpoilerPredictor {
 public:
  static StatusOr<IoTimeSpoilerPredictor> Fit(
      const std::vector<TemplateProfile>& reference_profiles,
      const std::vector<int>& train_mpls);

  StatusOr<units::Seconds> Predict(const TemplateProfile& target,
                                   units::Mpl mpl) const;

 private:
  IoTimeSpoilerPredictor() = default;
  LinearFit slope_fit_;      // growth slope ~ p_t
  LinearFit intercept_fit_;  // growth intercept ~ p_t
};

}  // namespace contender

#endif  // CONTENDER_CORE_SPOILER_MODEL_H_
