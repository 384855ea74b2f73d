#include "ml/kcca.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>

#include "math/eigen.h"
#include "math/kernel.h"

namespace contender {

StatusOr<KccaModel> KccaModel::Fit(const std::vector<Vector>& features,
                                   const std::vector<Vector>& performance,
                                   const Options& options) {
  if (features.size() != performance.size()) {
    return Status::InvalidArgument("KccaModel: size mismatch");
  }
  if (features.size() < 4) {
    return Status::InvalidArgument("KccaModel: need >= 4 examples");
  }
  if (options.num_projections <= 0) {
    return Status::InvalidArgument("KccaModel: num_projections must be > 0");
  }

  // Deterministic stride subsample when the training set exceeds the cap;
  // otherwise alias the caller's storage instead of copying it.
  std::vector<Vector> kept_features;
  std::vector<Vector> kept_performance;
  const std::vector<Vector>* selected_features = &features;
  const std::vector<Vector>* selected_performance = &performance;
  if (features.size() > kMaxTrainingExamples) {
    kept_features.reserve(kMaxTrainingExamples);
    kept_performance.reserve(kMaxTrainingExamples);
    for (size_t k = 0; k < kMaxTrainingExamples; ++k) {
      const size_t idx = k * features.size() / kMaxTrainingExamples;
      kept_features.push_back(features[idx]);
      kept_performance.push_back(performance[idx]);
    }
    selected_features = &kept_features;
    selected_performance = &kept_performance;
  }
  const std::vector<Vector>& train_features = *selected_features;
  const std::vector<Vector>& train_performance = *selected_performance;
  const size_t n = train_features.size();

  KccaModel model;

  // Z-score the feature view (the performance view is kernelized as-is
  // after a log transform upstream if desired).
  const size_t d = train_features[0].size();
  model.feature_mean_.assign(d, 0.0);
  model.feature_scale_.assign(d, 1.0);
  for (const auto& f : train_features) {
    if (f.size() != d) {
      return Status::InvalidArgument("KccaModel: ragged features");
    }
    for (size_t j = 0; j < d; ++j) model.feature_mean_[j] += f[j];
  }
  for (size_t j = 0; j < d; ++j) {
    model.feature_mean_[j] /= static_cast<double>(n);
  }
  Vector var(d, 0.0);
  for (const auto& f : train_features) {
    for (size_t j = 0; j < d; ++j) {
      const double diff = f[j] - model.feature_mean_[j];
      var[j] += diff * diff;
    }
  }
  for (size_t j = 0; j < d; ++j) {
    const double sd = std::sqrt(var[j] / static_cast<double>(n));
    model.feature_scale_[j] = sd > 1e-12 ? sd : 1.0;
  }
  model.train_features_.reserve(n);
  for (const auto& f : train_features) {
    model.train_features_.push_back(model.NormalizeFeatures(f));
  }
  model.train_latency_.reserve(n);
  for (const auto& p : train_performance) {
    if (p.empty()) {
      return Status::InvalidArgument("KccaModel: empty performance row");
    }
    model.train_latency_.push_back(p[0]);
  }

  model.gamma_x_ = MedianHeuristicGamma(model.train_features_);
  const double gamma_y = MedianHeuristicGamma(train_performance);

  const Matrix kx_raw = GaussianGramMatrix(model.train_features_,
                                           model.gamma_x_);
  const Matrix ky_raw = GaussianGramMatrix(train_performance, gamma_y);

  // Stash centering statistics for projecting new examples.
  model.kx_col_mean_.assign(n, 0.0);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) model.kx_col_mean_[i] += kx_raw(i, j);
    model.kx_col_mean_[i] /= static_cast<double>(n);
    total += model.kx_col_mean_[i];
  }
  model.kx_total_mean_ = total / static_cast<double>(n);

  const Matrix kx = CenterGramMatrix(kx_raw);
  const Matrix ky = CenterGramMatrix(ky_raw);

  // Hardoon et al. regularized KCCA:
  //   A = [ 0        Kx·Ky ]      B = [ (Kx + κI)²     0        ]
  //       [ Ky·Kx    0     ]          [ 0              (Ky + κI)² ]
  // A is symmetric because (Kx·Ky)ᵀ = Ky·Kx; B is SPD for κ > 0.
  const double kappa = kKappa * static_cast<double>(n) / 100.0 + 1e-3;
  Matrix kx_reg = kx;
  kx_reg.AddToDiagonal(kappa * static_cast<double>(n));
  Matrix ky_reg = ky;
  ky_reg.AddToDiagonal(kappa * static_cast<double>(n));

  const Matrix kxky = kx.Multiply(ky);
  const Matrix kykx = kxky.Transpose();
  const Matrix bx = kx_reg.Multiply(kx_reg);
  const Matrix by = ky_reg.Multiply(ky_reg);

  Matrix a(2 * n, 2 * n);
  Matrix b(2 * n, 2 * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      a(i, n + j) = kxky(i, j);
      a(n + i, j) = kykx(i, j);
      b(i, j) = bx(i, j);
      b(n + i, n + j) = by(i, j);
    }
  }

  StatusOr<EigenDecomposition> eig = GeneralizedSymmetricEigen(a, b);
  if (!eig.ok()) return eig.status();

  const size_t p = std::min<size_t>(
      static_cast<size_t>(options.num_projections), n);
  model.alpha_ = Matrix(n, p);
  for (size_t c = 0; c < p; ++c) {
    // Keep the Kx-side half of the eigenvector, normalized.
    double norm = 0.0;
    for (size_t r = 0; r < n; ++r) {
      const double v = eig->vectors(r, c);
      norm += v * v;
    }
    norm = std::sqrt(std::max(norm, 1e-30));
    for (size_t r = 0; r < n; ++r) {
      model.alpha_(r, c) = eig->vectors(r, c) / norm;
    }
  }

  model.train_projections_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Vector proj(p, 0.0);
    for (size_t c = 0; c < p; ++c) {
      double s = 0.0;
      for (size_t r = 0; r < n; ++r) s += kx(i, r) * model.alpha_(r, c);
      proj[c] = s;
    }
    model.train_projections_.push_back(std::move(proj));
  }
  return model;
}

Vector KccaModel::NormalizeFeatures(const Vector& v) const {
  Vector out(v.size());
  for (size_t j = 0; j < v.size(); ++j) {
    out[j] = (v[j] - feature_mean_[j]) / feature_scale_[j];
  }
  return out;
}

Vector KccaModel::Project(const Vector& query) const {
  const Vector q = NormalizeFeatures(query);
  const size_t n = train_features_.size();
  Vector k(n);
  double k_mean = 0.0;
  for (size_t i = 0; i < n; ++i) {
    k[i] = GaussianKernel(train_features_[i], q, gamma_x_);
    k_mean += k[i];
  }
  k_mean /= static_cast<double>(n);
  // Center against training statistics.
  for (size_t i = 0; i < n; ++i) {
    k[i] = k[i] - kx_col_mean_[i] - k_mean + kx_total_mean_;
  }
  Vector proj(alpha_.cols(), 0.0);
  for (size_t c = 0; c < alpha_.cols(); ++c) {
    double s = 0.0;
    for (size_t r = 0; r < n; ++r) s += k[r] * alpha_(r, c);
    proj[c] = s;
  }
  return proj;
}

double KccaModel::PredictLatency(const Vector& query) const {
  const Vector proj = Project(query);
  std::vector<size_t> idx(train_projections_.size());
  std::iota(idx.begin(), idx.end(), 0);
  const size_t k = std::min<size_t>(kNumNeighbors, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k),
                    idx.end(),
                    [&](size_t a, size_t b) {
                      return SquaredDistance(train_projections_[a], proj) <
                             SquaredDistance(train_projections_[b], proj);
                    });
  double s = 0.0;
  for (size_t i = 0; i < k; ++i) s += train_latency_[idx[i]];
  return s / static_cast<double>(k);
}

}  // namespace contender
