#include "linalg/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace powerlens::linalg {
namespace {

TEST(ColumnMeans, Computes) {
  const Matrix m{{1.0, 10.0}, {3.0, 20.0}};
  const std::vector<double> mu = column_means(m);
  ASSERT_EQ(mu.size(), 2u);
  EXPECT_DOUBLE_EQ(mu[0], 2.0);
  EXPECT_DOUBLE_EQ(mu[1], 15.0);
}

TEST(ColumnMeans, EmptyThrows) {
  EXPECT_THROW(column_means(Matrix()), std::invalid_argument);
}

TEST(Covariance, KnownTwoColumn) {
  // Perfectly correlated columns: cov = var on and off diagonal.
  const Matrix m{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  const Matrix c = covariance(m);
  EXPECT_NEAR(c(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(c(1, 1), 4.0, 1e-12);
  EXPECT_NEAR(c(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(c(1, 0), 2.0, 1e-12);
}

TEST(Covariance, IndependentColumnsNearZeroOffDiagonal) {
  const Matrix m{{1.0, 1.0}, {-1.0, 1.0}, {1.0, -1.0}, {-1.0, -1.0}};
  const Matrix c = covariance(m);
  EXPECT_NEAR(c(0, 1), 0.0, 1e-12);
}

TEST(Covariance, SingleSampleIsZero) {
  const Matrix m{{5.0, 7.0}};
  const Matrix c = covariance(m);
  EXPECT_DOUBLE_EQ(c(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 0.0);
}

TEST(Covariance, SymmetricResult) {
  const Matrix m{{1, 2, 3}, {4, 1, 0}, {2, 2, 2}, {0, 5, 1}};
  const Matrix c = covariance(m);
  EXPECT_LT(Matrix::max_abs_diff(c, c.transposed()), 1e-12);
}

// W S Wᵀ, which is the identity on the kept rank for a whitening factor.
Matrix whitened(const Matrix& w, const Matrix& s) {
  return w * s * w.transposed();
}

TEST(WhiteningFactor, WhitensAFullRankMatrix) {
  const Matrix s{{4.0, 2.0, 0.5}, {2.0, 3.0, 1.0}, {0.5, 1.0, 2.0}};
  const Matrix w = whitening_factor_spd(s);
  ASSERT_EQ(w.rows(), 3u);
  ASSERT_EQ(w.cols(), 3u);
  EXPECT_LT(Matrix::max_abs_diff(whitened(w, s), Matrix::identity(3)), 1e-12);
}

TEST(WhiteningFactor, KeepsTheRankOfADeficientCovariance) {
  // Column 2 duplicates column 0 and column 3 is constant: rank 2 of 4.
  const Matrix x{{1.0, 5.0, 1.0, 7.0},
                 {2.0, 3.0, 2.0, 7.0},
                 {4.0, 4.0, 4.0, 7.0},
                 {0.0, 9.0, 0.0, 7.0}};
  const Matrix s = covariance(x);
  const Matrix w = whitening_factor_spd(s);
  ASSERT_EQ(w.rows(), 2u);
  ASSERT_EQ(w.cols(), 4u);
  EXPECT_LT(Matrix::max_abs_diff(whitened(w, s), Matrix::identity(2)), 1e-12);
}

TEST(WhiteningFactor, PivotsOnTheLargestDiagonalLowestIndexFirst) {
  // diag(1, 3, 3): pivots 1, 2, 0 and eigenvalues 3, 3, 1 in that order, so
  // W is the scaled permutation.
  const Matrix s{{1.0, 0.0, 0.0}, {0.0, 3.0, 0.0}, {0.0, 0.0, 3.0}};
  const Matrix w = whitening_factor_spd(s);
  const double r3 = 1.0 / std::sqrt(3.0);
  const Matrix want{{0.0, r3, 0.0}, {0.0, 0.0, r3}, {1.0, 0.0, 0.0}};
  EXPECT_EQ(Matrix::max_abs_diff(w, want), 0.0);
}

TEST(WhiteningFactor, StopsAtTheRelativeCutoff) {
  // The second eigenvalue sits below rcond × the largest one.
  const Matrix s{{1.0, 0.0}, {0.0, 1e-12}};
  EXPECT_EQ(whitening_factor_spd(s).rows(), 1u);
  EXPECT_EQ(whitening_factor_spd(s, 1e-13).rows(), 2u);
}

TEST(WhiteningFactor, DecidesTheRankOnEigenvaluesNotTheDiagonal) {
  // [[1, 1 - δ], [1 - δ, 1]] has eigenvalues 2 - δ and δ = 1.5e-10, below
  // the cutoff 1e-10 × (2 - δ), while its second Schur diagonal
  // 2δ - δ² = 3e-10 sits above 1e-10 × the largest diagonal. The kept
  // direction is the top eigenvector (1, 1) / √2, whitened by 1 / √(2 - δ).
  const double delta = 1.5e-10;
  const Matrix s{{1.0, 1.0 - delta}, {1.0 - delta, 1.0}};
  const Matrix w = whitening_factor_spd(s);
  ASSERT_EQ(w.rows(), 1u);
  const double want = 1.0 / std::sqrt(2.0 * (2.0 - delta));
  EXPECT_NEAR(std::abs(w(0, 0)), want, 1e-12);
  EXPECT_NEAR(w(0, 1), w(0, 0), 1e-12);
  EXPECT_EQ(whitening_factor_spd(s, 1e-11).rows(), 2u);
}

TEST(WhiteningFactor, ZeroMatrixGivesAnEmptyFactor) {
  const Matrix w = whitening_factor_spd(Matrix(3, 3));
  EXPECT_EQ(w.rows(), 0u);
  EXPECT_EQ(w.cols(), 3u);
}

TEST(WhiteningFactor, RejectsNonSquareAndAsymmetric) {
  EXPECT_THROW(whitening_factor_spd(Matrix(2, 3)), std::invalid_argument);
  const Matrix m{{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_THROW(whitening_factor_spd(m), std::invalid_argument);
}

TEST(StandardScaler, TransformBeforeFitThrows) {
  StandardScaler s;
  EXPECT_THROW(s.transform(Matrix(1, 1)), std::logic_error);
}

TEST(StandardScaler, ZeroMeanUnitVariance) {
  const Matrix m{{1.0}, {2.0}, {3.0}, {4.0}};
  StandardScaler s;
  const Matrix t = s.fit_transform(m);
  double mean = 0.0;
  for (std::size_t r = 0; r < 4; ++r) mean += t(r, 0);
  mean /= 4.0;
  EXPECT_NEAR(mean, 0.0, 1e-12);
  double var = 0.0;
  for (std::size_t r = 0; r < 4; ++r) var += t(r, 0) * t(r, 0);
  var /= 3.0;  // matches the unbiased fit
  EXPECT_NEAR(var, 1.0, 1e-12);
}

TEST(StandardScaler, ConstantColumnMapsToZero) {
  const Matrix m{{5.0, 1.0}, {5.0, 2.0}, {5.0, 3.0}};
  StandardScaler s;
  const Matrix t = s.fit_transform(m);
  for (std::size_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(t(r, 0), 0.0);
}

TEST(StandardScaler, FeatureCountMismatchThrows) {
  StandardScaler s;
  s.fit(Matrix(3, 2, 1.0));
  EXPECT_THROW(s.transform(Matrix(3, 3)), std::invalid_argument);
}

TEST(StandardScaler, TransformRowMatchesMatrixTransform) {
  const Matrix m{{1.0, 10.0}, {2.0, 30.0}, {3.0, 20.0}};
  StandardScaler s;
  const Matrix t = s.fit_transform(m);
  const std::vector<double> row = s.transform_row(m.row(1));
  EXPECT_NEAR(row[0], t(1, 0), 1e-12);
  EXPECT_NEAR(row[1], t(1, 1), 1e-12);
}

TEST(StandardScaler, SingleSampleAllZero) {
  const Matrix m{{7.0, 9.0}};
  StandardScaler s;
  const Matrix t = s.fit_transform(m);
  EXPECT_DOUBLE_EQ(t(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(t(0, 1), 0.0);
}

}  // namespace
}  // namespace powerlens::linalg
