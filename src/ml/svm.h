// ε-insensitive Support Vector Regression with an RBF kernel, trained by a
// two-variable SMO-style dual coordinate ascent (Smola & Schölkopf).
//
// This is the "SVM" baseline of paper §3: query-plan feature vectors in,
// latency labels out.

#ifndef CONTENDER_ML_SVM_H_
#define CONTENDER_ML_SVM_H_

#include <vector>

#include "math/matrix.h"
#include "util/random.h"
#include "util/statusor.h"

namespace contender {

/// RBF-kernel ε-SVR.
class SvrModel {
 public:
  struct Options {
    /// Box constraint on the dual variables β_i = α_i − α*_i ∈ [−C, C].
    double c = 10.0;
    /// Half-width of the ε-insensitive tube, in label units (labels are
    /// z-scored internally, so this is in standard deviations).
    double epsilon = 0.05;
    uint64_t seed = 1;
  };

  /// Epochs of pair updates at most.
  static constexpr int kMaxEpochs = 200;
  /// Stop when an epoch's best objective improvement is below this.
  static constexpr double kTolerance = 1e-6;

  /// Trains on `features` (one row per example) and `labels`. Features are
  /// z-scored with the training statistics and the RBF width comes from
  /// the median heuristic.
  static StatusOr<SvrModel> Fit(const std::vector<Vector>& features,
                                const std::vector<double>& labels,
                                const Options& options);

  /// Predicted label for `query`.
  double Predict(const Vector& query) const;

  /// Number of support vectors (β_i != 0).
  size_t num_support_vectors() const { return support_.size(); }

 private:
  SvrModel() = default;

  Vector Normalize(const Vector& v) const;

  double gamma_ = 1.0;
  double bias_ = 0.0;
  double label_mean_ = 0.0;
  double label_scale_ = 1.0;
  Vector feature_mean_;
  Vector feature_scale_;
  std::vector<Vector> support_;     // normalized support vectors
  std::vector<double> support_beta_;
};

}  // namespace contender

#endif  // CONTENDER_ML_SVM_H_
