// Kernel Canonical Correlation Analysis (Hardoon et al. formulation), the
// KCCA baseline of paper §3: Gaussian kernels over the query-plan feature
// space and the performance space, a regularized generalized eigenproblem,
// and latency prediction by averaging the k nearest projected neighbors.

#ifndef CONTENDER_ML_KCCA_H_
#define CONTENDER_ML_KCCA_H_

#include <cstddef>
#include <vector>

#include "math/matrix.h"
#include "util/statusor.h"

namespace contender {

/// KCCA projection model mapping feature vectors into a low-dimensional
/// maximally-correlated space; prediction is kNN over training projections.
class KccaModel {
 public:
  struct Options {
    /// Number of canonical projection directions retained.
    int num_projections = 2;
  };

  /// Neighbors averaged for a latency prediction (paper uses 3).
  static constexpr int kNumNeighbors = 3;
  /// Regularization κ added to the kernel matrices (scaled by n).
  static constexpr double kKappa = 0.1;
  /// Training-set cap: the 2n x 2n generalized eigenproblem is O(n^3), so
  /// larger training sets are deterministically subsampled (stride) down
  /// to this many examples. The paper's §3 static experiment itself
  /// trains on 250 mixes.
  static constexpr size_t kMaxTrainingExamples = 250;

  /// Trains on `features` (query-plan view) and `performance` (one row per
  /// example; in the paper a latency vector, here usually 1-D). Both RBF
  /// widths come from the median heuristic of their view.
  static StatusOr<KccaModel> Fit(const std::vector<Vector>& features,
                                 const std::vector<Vector>& performance,
                                 const Options& options);

  /// Projects a feature vector into canonical space.
  Vector Project(const Vector& query) const;

  /// Predicts latency: averages performance[0] of the nearest training
  /// examples in projection space.
  double PredictLatency(const Vector& query) const;

 private:
  KccaModel() = default;

  Vector NormalizeFeatures(const Vector& v) const;

  double gamma_x_ = 1.0;
  Vector feature_mean_;
  Vector feature_scale_;
  std::vector<Vector> train_features_;  // normalized
  std::vector<double> train_latency_;
  // Kernel-centering statistics for new columns.
  Vector kx_col_mean_;
  double kx_total_mean_ = 0.0;
  // α: n × num_projections basis from the generalized eigenproblem.
  Matrix alpha_;
  // Projections of the training examples (n × num_projections).
  std::vector<Vector> train_projections_;
};

}  // namespace contender

#endif  // CONTENDER_ML_KCCA_H_
