#include "math/regression.h"

#include <cmath>
#include <cstddef>

namespace contender {

namespace {

double RSquared(const std::vector<double>& y,
                const std::vector<double>& predicted) {
  double mean = 0.0;
  for (double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  double ss_tot = 0.0;
  double ss_res = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    ss_tot += (y[i] - mean) * (y[i] - mean);
    ss_res += (y[i] - predicted[i]) * (y[i] - predicted[i]);
  }
  if (ss_tot <= 0.0) return 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace

StatusOr<LinearFit> FitSimpleLinear(const std::vector<double>& x,
                                    const std::vector<double>& y) {
  if (x.size() != y.size()) {
    return Status::InvalidArgument("FitSimpleLinear: size mismatch");
  }
  if (x.size() < 2) {
    return Status::InvalidArgument("FitSimpleLinear: need >= 2 points");
  }
  const double n = static_cast<double>(x.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
    sxx += x[i] * x[i];
    sxy += x[i] * y[i];
  }
  const double denom = n * sxx - sx * sx;
  if (std::fabs(denom) < 1e-12 * (1.0 + sxx)) {
    return Status::InvalidArgument("FitSimpleLinear: constant predictor");
  }
  LinearFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  std::vector<double> pred(x.size());
  for (size_t i = 0; i < x.size(); ++i) pred[i] = fit.Predict(x[i]);
  fit.r_squared = RSquared(y, pred);
  return fit;
}

}  // namespace contender
