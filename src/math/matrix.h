// Dense row-major matrix and vector types with the linear algebra needed by
// the KCCA / SVM / KNN components: products, transposes, Cholesky
// factorization, and inverses of lower-triangular factors.

#ifndef CONTENDER_MATH_MATRIX_H_
#define CONTENDER_MATH_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "util/statusor.h"

namespace contender {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Constructs from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// This * other. Requires cols() == other.rows().
  Matrix Multiply(const Matrix& other) const;

  /// This * v. Requires cols() == v.size().
  Vector Multiply(const Vector& v) const;

  Matrix Transpose() const;

  /// Element-wise sum; requires equal shapes.
  Matrix Add(const Matrix& other) const;

  /// Scalar multiple.
  Matrix Scale(double s) const;

  /// Adds `s` to every diagonal entry (ridge regularization helper).
  void AddToDiagonal(double s);

  const std::vector<double>& data() const { return data_; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Cholesky factorization of a symmetric positive-definite matrix: A = L Lᵀ.
/// Returns the lower-triangular L, or an error if A is not SPD.
StatusOr<Matrix> CholeskyFactor(const Matrix& a);

/// Solves L y = b (forward substitution) for lower-triangular L.
Vector ForwardSubstitute(const Matrix& l, const Vector& b);

/// Inverse of a lower-triangular matrix with nonzero diagonal.
StatusOr<Matrix> InvertLowerTriangular(const Matrix& l);

/// Squared Euclidean distance between a and b; requires equal sizes.
double SquaredDistance(const Vector& a, const Vector& b);

}  // namespace contender

#endif  // CONTENDER_MATH_MATRIX_H_
