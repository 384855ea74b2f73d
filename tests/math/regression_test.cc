#include "math/regression.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace contender {
namespace {

TEST(SimpleLinearTest, ExactLine) {
  auto fit = FitSimpleLinear({1.0, 2.0, 3.0}, {5.0, 7.0, 9.0});
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->slope, 2.0, 1e-12);
  EXPECT_NEAR(fit->intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit->Predict(10.0), 23.0, 1e-12);
}

TEST(SimpleLinearTest, RejectsDegenerateInput) {
  EXPECT_FALSE(FitSimpleLinear({1.0}, {2.0}).ok());
  EXPECT_FALSE(FitSimpleLinear({1.0, 2.0}, {2.0}).ok());
  EXPECT_FALSE(FitSimpleLinear({3.0, 3.0, 3.0}, {1.0, 2.0, 3.0}).ok());
}

TEST(SimpleLinearTest, NoisyRecovery) {
  Rng rng(21);
  std::vector<double> x, y;
  for (int i = 0; i < 500; ++i) {
    const double xi = rng.Uniform(0.0, 10.0);
    x.push_back(xi);
    y.push_back(4.0 * xi - 7.0 + rng.Normal(0.0, 0.5));
  }
  auto fit = FitSimpleLinear(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->slope, 4.0, 0.05);
  EXPECT_NEAR(fit->intercept, -7.0, 0.3);
  EXPECT_GT(fit->r_squared, 0.98);
}

TEST(SimpleLinearTest, RSquaredZeroForUncorrelated) {
  Rng rng(22);
  std::vector<double> x, y;
  for (int i = 0; i < 2000; ++i) {
    x.push_back(rng.Uniform01());
    y.push_back(rng.Uniform01());
  }
  auto fit = FitSimpleLinear(x, y);
  ASSERT_TRUE(fit.ok());
  EXPECT_LT(fit->r_squared, 0.01);
}

}  // namespace
}  // namespace contender
