#include "math/matrix.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/random.h"

namespace contender {
namespace {

TEST(MatrixTest, InitializerListAndAccess) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(MatrixTest, IdentityMultiplication) {
  Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  Matrix i = Matrix::Identity(2);
  Matrix p = m.Multiply(i);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 2; ++c) EXPECT_DOUBLE_EQ(p(r, c), m(r, c));
  }
}

TEST(MatrixTest, MultiplyKnownResult) {
  Matrix a = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix b = {{7.0, 8.0}, {9.0, 10.0}, {11.0, 12.0}};
  Matrix p = a.Multiply(b);
  EXPECT_DOUBLE_EQ(p(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(p(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(p(1, 1), 154.0);
}

TEST(MatrixTest, MultiplyVector) {
  Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  Vector v = a.Multiply(Vector{1.0, 1.0});
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
}

TEST(MatrixTest, TransposeRoundTrip) {
  Matrix a = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix t = a.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  Matrix tt = t.Transpose();
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(tt(r, c), a(r, c));
  }
}

TEST(MatrixTest, AddAndScale) {
  Matrix a = {{1.0, 2.0}};
  Matrix b = {{3.0, 4.0}};
  Matrix s = a.Add(b).Scale(2.0);
  EXPECT_DOUBLE_EQ(s(0, 0), 8.0);
  EXPECT_DOUBLE_EQ(s(0, 1), 12.0);
}

TEST(MatrixTest, AddToDiagonal) {
  Matrix a = Matrix(3, 3);
  a.AddToDiagonal(2.5);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(a(2, 2), 2.5);
  EXPECT_DOUBLE_EQ(a(0, 1), 0.0);
}

TEST(CholeskyTest, KnownFactorization) {
  Matrix a = {{4.0, 2.0}, {2.0, 3.0}};
  auto l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR((*l)(0, 0), 2.0, 1e-12);
  EXPECT_NEAR((*l)(1, 0), 1.0, 1e-12);
  EXPECT_NEAR((*l)(1, 1), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ((*l)(0, 1), 0.0);
}

TEST(CholeskyTest, ReconstructsInput) {
  Rng rng(9);
  const size_t n = 6;
  Matrix b(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) b(r, c) = rng.Uniform(-1.0, 1.0);
  }
  Matrix spd = b.Multiply(b.Transpose());
  spd.AddToDiagonal(0.5);
  auto l = CholeskyFactor(spd);
  ASSERT_TRUE(l.ok());
  Matrix rec = l->Multiply(l->Transpose());
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) EXPECT_NEAR(rec(r, c), spd(r, c), 1e-9);
  }
}

TEST(CholeskyTest, RejectsIndefinite) {
  EXPECT_FALSE(CholeskyFactor({{1.0, 2.0}, {2.0, 1.0}}).ok());
  EXPECT_FALSE(CholeskyFactor(Matrix(2, 3)).ok());
}

TEST(TriangularTest, ForwardSubstitution) {
  Matrix l = {{2.0, 0.0}, {1.0, 3.0}};
  // L y = b
  Vector y = ForwardSubstitute(l, {4.0, 11.0});
  EXPECT_NEAR(y[0], 2.0, 1e-12);
  EXPECT_NEAR(y[1], 3.0, 1e-12);
}

TEST(TriangularTest, InvertLowerTriangular) {
  Matrix l = {{2.0, 0.0}, {1.0, 4.0}};
  auto inv = InvertLowerTriangular(l);
  ASSERT_TRUE(inv.ok());
  Matrix prod = l.Multiply(*inv);
  EXPECT_NEAR(prod(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(prod(1, 1), 1.0, 1e-12);
  EXPECT_NEAR(prod(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(prod(1, 0), 0.0, 1e-12);
}

TEST(VectorOpsTest, SquaredDistance) {
  EXPECT_DOUBLE_EQ(SquaredDistance({1.0, 1.0}, {4.0, 5.0}), 25.0);
}

}  // namespace
}  // namespace contender
