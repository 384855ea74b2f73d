// Ordinary least squares with one predictor.
//
// These are the workhorses of Contender: QS models (continuum point vs CQI),
// coefficient-transfer regressions (slope vs isolated latency, intercept vs
// slope), and spoiler growth models (latency vs MPL) are all OLS fits.

#ifndef CONTENDER_MATH_REGRESSION_H_
#define CONTENDER_MATH_REGRESSION_H_

#include <vector>

#include "util/statusor.h"

namespace contender {

/// y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination on the training data.
  double r_squared = 0.0;

  double Predict(double x) const { return slope * x + intercept; }
};

/// Fits a simple linear regression of y on x.
/// Requires x.size() == y.size() >= 2 and non-constant x.
StatusOr<LinearFit> FitSimpleLinear(const std::vector<double>& x,
                                    const std::vector<double>& y);

}  // namespace contender

#endif  // CONTENDER_MATH_REGRESSION_H_
