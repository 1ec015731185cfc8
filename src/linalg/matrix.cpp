#include "linalg/matrix.hpp"

#include "io/binary.hpp"
#include "linalg/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace powerlens::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::from_rows(std::size_t rows, std::size_t cols,
                         std::span<const double> data) {
  if (data.size() != rows * cols) {
    throw std::invalid_argument("Matrix::from_rows: size mismatch");
  }
  Matrix m(rows, cols);
  std::copy(data.begin(), data.end(), m.data_.begin());
  return m;
}

void Matrix::reshape(std::size_t rows, std::size_t cols, double fill) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, fill);
}

void Matrix::reshape_no_fill(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  if (data_.size() != rows * cols) data_.resize(rows * cols);
}

void Matrix::fill(double value) noexcept {
  for (double& v : data_) v = value;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

std::span<const double> Matrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return {data_.data() + r * cols_, cols_};
}

std::span<double> Matrix::row(std::size_t r) {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return {data_.data() + r * cols_, cols_};
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix::operator+=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix::operator-=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) noexcept {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix operator*(const Matrix& lhs, const Matrix& rhs) {
  return kernels::matmul(lhs, rhs);
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows_ != b.rows_ || a.cols_ != b.cols_) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  double m = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  }
  return m;
}

double Matrix::frobenius_norm() const noexcept {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

std::string Matrix::to_string() const {
  std::ostringstream os;
  for (std::size_t r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < cols_; ++c) {
      os << (*this)(r, c) << (c + 1 == cols_ ? "" : ", ");
    }
    os << (r + 1 == rows_ ? "]" : "\n");
  }
  return os.str();
}

void Matrix::encode(io::Writer& w) const {
  w.u64(rows_);
  w.u64(cols_);
  for (double v : data_) w.f64(v);
}

Matrix Matrix::decode(io::Cursor& c) {
  const std::uint64_t rows = c.u64();
  const std::uint64_t cols = c.u64();
  if (rows != 0 && cols > c.remaining() / sizeof(double) / rows) {
    throw io::TruncatedError("matrix " + std::to_string(rows) + "x" +
                             std::to_string(cols) + " cannot fit in " +
                             std::to_string(c.remaining()) + " bytes");
  }
  Matrix m(rows, cols);
  for (double& v : m.data_) v = c.f64();
  return m;
}

std::vector<double> mat_vec(const Matrix& m, std::span<const double> x) {
  if (x.size() != m.cols()) {
    throw std::invalid_argument("mat_vec: dimension mismatch");
  }
  std::vector<double> y(m.rows(), 0.0);
  kernels::gemv(m.rows(), m.cols(), m.data().data(), m.cols(), x.data(),
                y.data());
  return y;
}

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace powerlens::linalg
