#include "ml/svm.h"

#include <algorithm>
#include <cmath>

#include "math/kernel.h"
#include "util/summary_stats.h"

namespace contender {

namespace {

// Change in the dual objective for moving (β_i, β_j) by (+delta, -delta):
//   ΔW = delta·g0 − η·delta²/2 − ε(|βi+δ| − |βi| + |βj−δ| − |βj|)
double ObjectiveDelta(double delta, double g0, double eta, double eps,
                      double beta_i, double beta_j) {
  return delta * g0 - 0.5 * eta * delta * delta -
         eps * (std::fabs(beta_i + delta) - std::fabs(beta_i) +
                std::fabs(beta_j - delta) - std::fabs(beta_j));
}

}  // namespace

StatusOr<SvrModel> SvrModel::Fit(const std::vector<Vector>& features,
                                 const std::vector<double>& labels,
                                 const Options& options) {
  if (features.size() != labels.size()) {
    return Status::InvalidArgument("SvrModel: size mismatch");
  }
  if (features.size() < 2) {
    return Status::InvalidArgument("SvrModel: need >= 2 examples");
  }
  const size_t n = features.size();
  const size_t d = features[0].size();
  for (const auto& f : features) {
    if (f.size() != d) {
      return Status::InvalidArgument("SvrModel: ragged features");
    }
  }

  SvrModel model;

  // Feature normalization.
  model.feature_mean_.assign(d, 0.0);
  model.feature_scale_.assign(d, 1.0);
  for (const auto& f : features) {
    for (size_t j = 0; j < d; ++j) model.feature_mean_[j] += f[j];
  }
  for (size_t j = 0; j < d; ++j) {
    model.feature_mean_[j] /= static_cast<double>(n);
  }
  Vector var(d, 0.0);
  for (const auto& f : features) {
    for (size_t j = 0; j < d; ++j) {
      const double diff = f[j] - model.feature_mean_[j];
      var[j] += diff * diff;
    }
  }
  for (size_t j = 0; j < d; ++j) {
    const double sd = std::sqrt(var[j] / static_cast<double>(n));
    model.feature_scale_[j] = sd > 1e-12 ? sd : 1.0;
  }
  std::vector<Vector> x(n);
  for (size_t i = 0; i < n; ++i) x[i] = model.Normalize(features[i]);

  // Label z-scoring keeps C and epsilon scale-free.
  SummaryStats label_stats;
  for (double v : labels) label_stats.Add(v);
  model.label_mean_ = label_stats.mean();
  model.label_scale_ =
      label_stats.stddev() > 1e-12 ? label_stats.stddev() : 1.0;
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = (labels[i] - model.label_mean_) / model.label_scale_;
  }

  model.gamma_ = MedianHeuristicGamma(x);

  const Matrix k = GaussianGramMatrix(x, model.gamma_);
  const double c = options.c;
  const double eps = options.epsilon;

  std::vector<double> beta(n, 0.0);
  // Cached f_i = Σ_k β_k K_ik (no bias).
  std::vector<double> f(n, 0.0);

  Rng rng(options.seed);
  // Hoisted out of the pair loop: at most 4 breakpoints + 4 per-sign
  // optima, so one allocation serves the whole fit.
  std::vector<double> candidates;
  candidates.reserve(8);
  for (int epoch = 0; epoch < kMaxEpochs; ++epoch) {
    double epoch_best = 0.0;
    std::vector<int> order = rng.Permutation(static_cast<int>(n));
    for (int ii : order) {
      const size_t i = static_cast<size_t>(ii);
      // Pick partner j maximizing the first-order gain proxy |g0| among a
      // random candidate pool.
      size_t j = i;
      double best_gain = -1.0;
      const int pool = std::min<int>(16, static_cast<int>(n) - 1);
      for (int trial = 0; trial < pool; ++trial) {
        size_t cand = static_cast<size_t>(rng.UniformInt(
            static_cast<uint64_t>(n)));
        if (cand == i) continue;
        const double g = std::fabs((y[i] - f[i]) - (y[cand] - f[cand]));
        if (g > best_gain) {
          best_gain = g;
          j = cand;
        }
      }
      if (j == i) continue;

      const double eta = k(i, i) + k(j, j) - 2.0 * k(i, j);
      const double g0 = (y[i] - y[j]) - (f[i] - f[j]);
      const double lo = std::max(-c - beta[i], beta[j] - c);
      const double hi = std::min(c - beta[i], beta[j] + c);
      if (lo >= hi) continue;

      // Candidate deltas: per-sign-region optima plus the breakpoints.
      candidates.assign({-beta[i], beta[j], lo, hi});
      if (eta > 1e-12) {
        for (double si : {-1.0, 1.0}) {
          for (double sj : {-1.0, 1.0}) {
            candidates.push_back((g0 - eps * si + eps * sj) / eta);
          }
        }
      }
      double best_delta = 0.0;
      double best_gain_obj = 0.0;
      for (double cand : candidates) {
        const double delta = std::clamp(cand, lo, hi);
        const double gain =
            ObjectiveDelta(delta, g0, eta, eps, beta[i], beta[j]);
        if (gain > best_gain_obj) {
          best_gain_obj = gain;
          best_delta = delta;
        }
      }
      if (best_gain_obj <= 0.0) continue;
      epoch_best = std::max(epoch_best, best_gain_obj);

      beta[i] += best_delta;
      beta[j] -= best_delta;
      for (size_t kk = 0; kk < n; ++kk) {
        f[kk] += best_delta * (k(i, kk) - k(j, kk));
      }
    }
    if (epoch_best < kTolerance) break;
  }

  // Bias from free support vectors: f(x_i) should equal y_i − ε·sign(β_i).
  std::vector<double> bias_estimates;
  for (size_t i = 0; i < n; ++i) {
    if (std::fabs(beta[i]) > 1e-9 && std::fabs(beta[i]) < c - 1e-9) {
      const double sign = beta[i] > 0.0 ? 1.0 : -1.0;
      bias_estimates.push_back(y[i] - f[i] - eps * sign);
    }
  }
  if (bias_estimates.empty()) {
    for (size_t i = 0; i < n; ++i) bias_estimates.push_back(y[i] - f[i]);
  }
  model.bias_ = Median(std::move(bias_estimates));

  for (size_t i = 0; i < n; ++i) {
    if (std::fabs(beta[i]) > 1e-9) {
      model.support_.push_back(x[i]);
      model.support_beta_.push_back(beta[i]);
    }
  }
  return model;
}

Vector SvrModel::Normalize(const Vector& v) const {
  Vector out(v.size());
  for (size_t j = 0; j < v.size(); ++j) {
    out[j] = (v[j] - feature_mean_[j]) / feature_scale_[j];
  }
  return out;
}

double SvrModel::Predict(const Vector& query) const {
  const Vector q = Normalize(query);
  double s = bias_;
  for (size_t i = 0; i < support_.size(); ++i) {
    s += support_beta_[i] * GaussianKernel(support_[i], q, gamma_);
  }
  return s * label_scale_ + label_mean_;
}

}  // namespace contender
