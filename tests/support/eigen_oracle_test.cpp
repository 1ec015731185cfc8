// The long double Jacobi eigensolver and pseudo-inverse the distance oracles
// read.
#include "support/eigen_oracle.hpp"

#include "support/distance_oracles.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <stdexcept>
#include <vector>

namespace powerlens::testing {
namespace {

using linalg::Matrix;

Matrix random_spd(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> dist(0.0, 1.0);
  Matrix a(n, n);
  for (double& v : a.data()) v = dist(rng);
  // A^T A + eps I is symmetric positive definite.
  Matrix spd = a.transposed() * a;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 0.1;
  return spd;
}

// The eigenvectors as a double matrix (column c is vector c).
Matrix vectors_of(const JacobiEigen& e) {
  Matrix v(e.n, e.n);
  for (std::size_t i = 0; i < e.n * e.n; ++i) {
    v.data()[i] = static_cast<double>(e.vectors[i]);
  }
  return v;
}

TEST(EigenSymmetric, DiagonalMatrix) {
  const Matrix d{{3.0, 0.0}, {0.0, 1.0}};
  const JacobiEigen e = jacobi_eigen(d);
  ASSERT_EQ(e.values.size(), 2u);
  EXPECT_NEAR(e.values[0], 3.0, 1e-12);
  EXPECT_NEAR(e.values[1], 1.0, 1e-12);
}

TEST(EigenSymmetric, Known2x2) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  const Matrix m{{2.0, 1.0}, {1.0, 2.0}};
  const JacobiEigen e = jacobi_eigen(m);
  EXPECT_NEAR(e.values[0], 3.0, 1e-10);
  EXPECT_NEAR(e.values[1], 1.0, 1e-10);
}

TEST(EigenSymmetric, ReconstructsMatrix) {
  const Matrix a = random_spd(6, 123);
  const JacobiEigen e = jacobi_eigen(a);
  // V diag(vals) V^T == A
  Matrix lam(6, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    lam(i, i) = static_cast<double>(e.values[i]);
  }
  const Matrix v = vectors_of(e);
  const Matrix recon = v * lam * v.transposed();
  EXPECT_LT(Matrix::max_abs_diff(recon, a), 1e-8);
}

TEST(EigenSymmetric, EigenvectorsOrthonormal) {
  const Matrix a = random_spd(5, 77);
  const JacobiEigen e = jacobi_eigen(a);
  const Matrix v = vectors_of(e);
  const Matrix vtv = v.transposed() * v;
  EXPECT_LT(Matrix::max_abs_diff(vtv, Matrix::identity(5)), 1e-9);
}

TEST(EigenSymmetric, ValuesSortedDescending) {
  const Matrix a = random_spd(8, 99);
  const JacobiEigen e = jacobi_eigen(a);
  for (std::size_t i = 1; i < e.values.size(); ++i) {
    EXPECT_GE(e.values[i - 1], e.values[i]);
  }
}

TEST(EigenSymmetric, RejectsNonSquare) {
  EXPECT_THROW(jacobi_eigen(Matrix(2, 3)), std::invalid_argument);
}

TEST(EigenSymmetric, RejectsAsymmetric) {
  const Matrix m{{1.0, 2.0}, {0.0, 1.0}};
  EXPECT_THROW(jacobi_eigen(m), std::invalid_argument);
}

TEST(PseudoInverse, InvertsFullRankSpd) {
  const Matrix a = random_spd(5, 31);
  const Matrix p = pseudo_inverse_spd(a);
  EXPECT_LT(Matrix::max_abs_diff(a * p, Matrix::identity(5)), 1e-7);
}

TEST(PseudoInverse, HandlesRankDeficiency) {
  // Rank-1 matrix: outer product of v with itself, v = (1, 2).
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  const Matrix p = pseudo_inverse_spd(a);
  // Moore-Penrose identities: A P A == A and P A P == P.
  EXPECT_LT(Matrix::max_abs_diff(a * p * a, a), 1e-9);
  EXPECT_LT(Matrix::max_abs_diff(p * a * p, p), 1e-9);
}

TEST(PseudoInverse, ZeroMatrixGivesZero) {
  const Matrix z(3, 3);
  const Matrix p = pseudo_inverse_spd(z);
  EXPECT_LT(p.frobenius_norm(), 1e-12);
}

TEST(PseudoInverse, SymmetricResult) {
  const Matrix a = random_spd(4, 55);
  const Matrix p = pseudo_inverse_spd(a);
  EXPECT_LT(Matrix::max_abs_diff(p, p.transposed()), 1e-9);
}

}  // namespace
}  // namespace powerlens::testing
