// Dense row-major matrix of doubles.
//
// This is the minimal linear-algebra substrate PowerLens needs: covariance
// matrices of layer-feature tables, their pseudo-inverses (for the Mahalanobis
// distance of Algorithm 1), and the dense algebra inside the prediction-model
// trainer. Products route through the blocked kernels in linalg/kernels.hpp;
// the class itself stays a plain storage-and-shape type.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace powerlens::io {
class Writer;
class Cursor;
}  // namespace powerlens::io

namespace powerlens::linalg {

class Matrix {
 public:
  Matrix() = default;
  // Creates a rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  // Creates a matrix from nested initializer lists; all rows must have the
  // same length. Throws std::invalid_argument on ragged input.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);
  // Builds a matrix from a flat row-major buffer. Throws if sizes mismatch.
  static Matrix from_rows(std::size_t rows, std::size_t cols,
                          std::span<const double> data);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }
  bool square() const noexcept { return rows_ == cols_; }
  // Doubles the backing store can hold without reallocating.
  std::size_t capacity() const noexcept { return data_.capacity(); }

  // Re-dimensions the matrix to rows x cols with every element set to
  // `fill`. Reuses the backing store when rows * cols fits its capacity —
  // the Workspace scratch-pool contract relies on this staying
  // allocation-free after warmup.
  void reshape(std::size_t rows, std::size_t cols, double fill = 0.0);
  // Re-dimensions WITHOUT refreshing contents: existing elements keep
  // whatever values the buffer held (in flat row-major order) and any
  // growth is zero-filled. For outputs whose consumed region is fully
  // overwritten next — skips the O(rows·cols) refill reshape() pays.
  void reshape_no_fill(std::size_t rows, std::size_t cols);
  // Sets every element to `value` without changing the shape.
  void fill(double value) noexcept;

  double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }
  // Bounds-checked access; throws std::out_of_range.
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  std::span<const double> row(std::size_t r) const;
  std::span<double> row(std::size_t r);
  std::span<const double> data() const noexcept { return data_; }
  std::span<double> data() noexcept { return data_; }

  Matrix transposed() const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s) noexcept;

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
  friend Matrix operator*(Matrix lhs, double s) noexcept { return lhs *= s; }
  friend Matrix operator*(double s, Matrix rhs) noexcept { return rhs *= s; }

  // Matrix product; throws std::invalid_argument on dimension mismatch.
  friend Matrix operator*(const Matrix& lhs, const Matrix& rhs);

  bool operator==(const Matrix& rhs) const noexcept = default;

  // Max |a_ij - b_ij|; matrices must have identical shape.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

  // Frobenius norm.
  double frobenius_norm() const noexcept;

  std::string to_string() const;

  // .plbin encoding: u64 rows, u64 cols, then the row-major values. decode
  // throws io::TruncatedError, before allocating, when rows x cols values
  // cannot fit in the cursor's remaining bytes.
  void encode(io::Writer& w) const;
  static Matrix decode(io::Cursor& c);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// y = M * x; throws std::invalid_argument if x.size() != M.cols().
std::vector<double> mat_vec(const Matrix& m, std::span<const double> x);

// Dot product; throws std::invalid_argument on length mismatch.
double dot(std::span<const double> a, std::span<const double> b);

}  // namespace powerlens::linalg
