#include "math/matrix.h"

#include <cassert>
#include <cmath>

namespace contender {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.size() ? rows.begin()->size() : 0) {
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    assert(row.size() == cols_);
    for (double v : row) data_.push_back(v);
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (size_t j = 0; j < other.cols_; ++j) {
        out(i, j) += a * other(k, j);
      }
    }
  }
  return out;
}

Vector Matrix::Multiply(const Vector& v) const {
  assert(cols_ == v.size());
  Vector out(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < cols_; ++j) s += (*this)(i, j) * v[j];
    out[i] = s;
  }
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

Matrix Matrix::Add(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

Matrix Matrix::Scale(double s) const {
  Matrix out = *this;
  for (double& v : out.data_) v *= s;
  return out;
}

void Matrix::AddToDiagonal(double s) {
  const size_t n = rows_ < cols_ ? rows_ : cols_;
  for (size_t i = 0; i < n; ++i) (*this)(i, i) += s;
}

StatusOr<Matrix> CholeskyFactor(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("CholeskyFactor: matrix not square");
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double s = a(i, j);
      for (size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
      if (i == j) {
        if (s <= 0.0) {
          return Status::InvalidArgument(
              "CholeskyFactor: matrix not positive definite");
        }
        l(i, j) = std::sqrt(s);
      } else {
        l(i, j) = s / l(j, j);
      }
    }
  }
  return l;
}

Vector ForwardSubstitute(const Matrix& l, const Vector& b) {
  assert(l.rows() == b.size());
  const size_t n = l.rows();
  Vector y(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (size_t j = 0; j < i; ++j) s -= l(i, j) * y[j];
    y[i] = s / l(i, i);
  }
  return y;
}

StatusOr<Matrix> InvertLowerTriangular(const Matrix& l) {
  if (l.rows() != l.cols()) {
    return Status::InvalidArgument("InvertLowerTriangular: not square");
  }
  const size_t n = l.rows();
  for (size_t i = 0; i < n; ++i) {
    if (std::fabs(l(i, i)) < 1e-14) {
      return Status::InvalidArgument("InvertLowerTriangular: zero diagonal");
    }
  }
  Matrix inv(n, n);
  for (size_t c = 0; c < n; ++c) {
    Vector e(n, 0.0);
    e[c] = 1.0;
    Vector col = ForwardSubstitute(l, e);
    for (size_t r = 0; r < n; ++r) inv(r, c) = col[r];
  }
  return inv;
}

double SquaredDistance(const Vector& a, const Vector& b) {
  assert(a.size() == b.size());
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

}  // namespace contender
