// The dispatch-seam guarantee: every compiled-in kernel path (scalar, AVX2,
// NEON) produces BITWISE identical output for every kernel, shape, and
// epilogue flag. kernels_test.cpp pins the arithmetic against reference
// oracles under the active path; this file pins the paths against EACH
// OTHER — the property that lets a scalar CI box, an AVX2 server, and an
// aarch64 edge device all reproduce the same golden files and serve
// reports byte for byte.
#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <random>
#include <thread>
#include <vector>

namespace powerlens::linalg::kernels {
namespace {

// Restores auto-detection on scope exit so a failing test cannot leak a
// pinned path into the rest of the suite.
struct PathGuard {
  explicit PathGuard(DispatchPath p) { set_path_override(p); }
  ~PathGuard() { set_path_override(std::nullopt); }
};

std::vector<DispatchPath> available_paths() {
  std::vector<DispatchPath> paths;
  for (const DispatchPath p :
       {DispatchPath::kScalar, DispatchPath::kAvx2, DispatchPath::kNeon}) {
    if (path_available(p)) paths.push_back(p);
  }
  return paths;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  for (double& v : m.data()) v = dist(rng);
  return m;
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want, const char* what,
                          DispatchPath path) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " differs at flat index " << i
                               << " on path " << path_name(path);
  }
}

// One deterministic pass through every kernel and epilogue flag at the
// given shape; returns all outputs concatenated for bitwise comparison.
std::vector<double> run_all_kernels(std::size_t m, std::size_t n,
                                    std::size_t k) {
  const Matrix a = random_matrix(m, k, 1000 + m);
  const Matrix b = random_matrix(k, n, 2000 + n);
  const Matrix bt = random_matrix(n, k, 3000 + k);
  const Matrix at = random_matrix(k, m, 4000 + m + n);
  const Matrix seed_c = random_matrix(m, n, 5000 + m + n + k);
  std::vector<double> bias(n);
  std::vector<double> x(k);
  {
    std::mt19937_64 rng(6000 + n);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (double& v : bias) v = dist(rng);
    for (double& v : x) v = dist(rng);
  }

  std::vector<double> out;
  const auto append = [&out](const Matrix& mat) {
    out.insert(out.end(), mat.data().begin(), mat.data().end());
  };

  append(matmul(a, b));
  append(matmul_nt(a, bt));
  append(matmul_tn(at, b));

  Matrix acc_nn = seed_c;
  gemm_nn(m, n, k, a.data().data(), k, b.data().data(), n,
          acc_nn.data().data(), n, /*accumulate=*/true);
  append(acc_nn);
  Matrix acc_nt = seed_c;
  gemm_nt(m, n, k, a.data().data(), k, bt.data().data(), k,
          acc_nt.data().data(), n, /*accumulate=*/true);
  append(acc_nt);
  Matrix acc_tn = seed_c;
  gemm_tn(m, n, k, at.data().data(), m, b.data().data(), n,
          acc_tn.data().data(), n, /*accumulate=*/true);
  append(acc_tn);

  for (const bool relu : {false, true}) {
    Matrix fused(m, n);
    affine(m, n, k, a.data().data(), k, bt.data().data(), k, bias.data(),
           fused.data().data(), n, relu);
    append(fused);
  }

  std::vector<double> y(m, 0.125);
  gemv(m, k, a.data().data(), k, x.data(), y.data(), /*accumulate=*/true);
  out.insert(out.end(), y.begin(), y.end());

  std::vector<double> sums(k, -3.0);
  col_sums(m, k, a.data().data(), k, sums.data(), /*accumulate=*/false);
  out.insert(out.end(), sums.begin(), sums.end());
  col_sums(m, k, a.data().data(), k, sums.data(), /*accumulate=*/true);
  out.insert(out.end(), sums.begin(), sums.end());

  // Distance-path kernels chained the way the Mahalanobis pipeline runs
  // them: lower-triangle Gram of the A rows, then the fused distance tail.
  // The sentinel fill of the Gram upper triangle is appended too, so a path
  // that wrote outside the lower triangle would also fail bitwise.
  {
    Matrix gram(m, m);
    for (double& v : gram.data()) v = -7.0;
    std::vector<double> at(k * m);
    syrk_nt(m, k, a.data().data(), k, at.data(), gram.data().data(), m);
    append(gram);
    std::vector<double> penalty(m);
    for (std::size_t t = 0; t < m; ++t) {
      penalty[t] = static_cast<double>(t) / (static_cast<double>(m) + 1.0);
    }

    // The triangular fused pipeline over the same Gram: max prepass, then
    // one blended-lower + ε-bitmap sweep. Sentinel fill again pins the
    // untouched upper triangle; bitmap words are appended as exact 32-bit
    // halves so a single flipped adjacency bit fails the gauntlet.
    std::vector<double> diag(m);
    double max_d = 0.0;
    gram_dist_max(m, gram.data().data(), m, diag.data(), &max_d);
    out.insert(out.end(), diag.begin(), diag.end());
    out.push_back(max_d);
    const double inv_max = max_d > 0.0 ? 1.0 / max_d : 1.0;
    Matrix blended(m, m);
    for (double& v : blended.data()) v = -5.5;
    const std::size_t words = (m + 63) / 64;
    std::vector<std::uint64_t> bits(m * words);
    std::vector<std::size_t> degree(m);
    gram_blend_adj(m, gram.data().data(), m, diag.data(), 0.75, inv_max,
                   0.25, penalty.data(), blended.data().data(), m, 0.45,
                   bits.data(), words, degree.data());
    append(blended);
    for (const std::uint64_t w : bits) {
      out.push_back(static_cast<double>(w & 0xffffffffULL));
      out.push_back(static_cast<double>(w >> 32));
    }
    for (const std::size_t deg : degree) {
      out.push_back(static_cast<double>(deg));
    }
  }

  return out;
}

TEST(Dispatch, ScalarPathIsAlwaysAvailable) {
  EXPECT_TRUE(path_available(DispatchPath::kScalar));
  PathGuard guard(DispatchPath::kScalar);
  EXPECT_EQ(active_path(), DispatchPath::kScalar);
}

TEST(Dispatch, OverrideToUnavailablePathThrows) {
  for (const DispatchPath p : {DispatchPath::kAvx2, DispatchPath::kNeon}) {
    if (!path_available(p)) {
      EXPECT_THROW(set_path_override(p), std::invalid_argument)
          << path_name(p);
    }
  }
  // A rejected override must not have disturbed dispatch.
  EXPECT_TRUE(path_available(active_path()));
}

TEST(Dispatch, OverrideRoundTripRestoresAutoDetection) {
  const DispatchPath auto_path = active_path();
  {
    PathGuard guard(DispatchPath::kScalar);
    EXPECT_EQ(active_path(), DispatchPath::kScalar);
  }
  EXPECT_EQ(active_path(), auto_path);
}

TEST(Dispatch, AllPathsBitwiseIdenticalAcrossShapeGauntlet) {
  const std::vector<DispatchPath> paths = available_paths();
  ASSERT_FALSE(paths.empty());
  if (paths.size() == 1) {
    GTEST_SKIP() << "only the scalar path is compiled in";
  }
  // Odd, tiny, register-tile-edge, kBlockCols=64 edge, vector-lane edge
  // (multiples of 4 ± 1), and deep-k shapes crossing kBlockDepth=256.
  const struct {
    std::size_t m, n, k;
  } shapes[] = {{1, 1, 1},   {1, 1, 3},    {2, 3, 5},    {3, 5, 4},
                {4, 4, 4},   {5, 7, 9},    {7, 2, 17},   {8, 8, 8},
                {9, 11, 13}, {16, 17, 15}, {17, 63, 33}, {33, 64, 65},
                {5, 65, 31}, {12, 19, 255}, {6, 5, 256},  {7, 9, 257}};
  for (const auto& s : shapes) {
    std::vector<double> reference;
    {
      PathGuard guard(DispatchPath::kScalar);
      reference = run_all_kernels(s.m, s.n, s.k);
    }
    for (const DispatchPath p : paths) {
      if (p == DispatchPath::kScalar) continue;
      PathGuard guard(p);
      const std::vector<double> got = run_all_kernels(s.m, s.n, s.k);
      expect_bitwise_equal(got, reference, "kernel gauntlet", p);
      ASSERT_FALSE(testing::Test::HasFailure())
          << "shape (" << s.m << ", " << s.n << ", " << s.k << ")";
    }
  }
}

TEST(Dispatch, ReluEpilogueNormalizesNanAndNegativeZeroOnEveryPath) {
  for (const DispatchPath p : available_paths()) {
    PathGuard guard(p);
    // Independent 1x1 affines so one input cannot contaminate another
    // through NaN * 0 cross terms. NaN -> +0, -0 -> +0, negative -> +0,
    // positive unchanged.
    const double inputs[] = {std::nan(""), -0.0, -1.5, 2.0};
    const double biases[] = {0.0, -0.0, 0.0, 0.0};
    const double expected[] = {0.0, 0.0, 0.0, 2.0};
    const double one = 1.0;
    for (std::size_t c = 0; c < 4; ++c) {
      double out = -99.0;
      affine(1, 1, 1, &inputs[c], 1, &one, 1, &biases[c], &out, 1,
             /*relu=*/true);
      EXPECT_EQ(out, expected[c]) << path_name(p) << " case " << c;
      EXPECT_FALSE(std::signbit(out)) << path_name(p) << " case " << c;
    }
  }
}

TEST(Dispatch, ConcurrentSimdCallsMatchScalarSequential) {
  const std::vector<DispatchPath> paths = available_paths();
  const Matrix a = random_matrix(47, 257, 7000);
  const Matrix bt = random_matrix(29, 257, 7001);
  Matrix reference;
  {
    PathGuard guard(DispatchPath::kScalar);
    reference = matmul_nt(a, bt);
  }
  for (const DispatchPath p : paths) {
    PathGuard guard(p);
    constexpr std::size_t kThreads = 8;
    std::vector<Matrix> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { results[t] = matmul_nt(a, bt); });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(results[t].rows(), reference.rows());
      ASSERT_EQ(results[t].cols(), reference.cols());
      for (std::size_t i = 0; i < reference.rows(); ++i) {
        for (std::size_t j = 0; j < reference.cols(); ++j) {
          ASSERT_EQ(results[t](i, j), reference(i, j))
              << path_name(p) << " thread " << t << " at (" << i << ", " << j
              << ")";
        }
      }
    }
  }
}

}  // namespace
}  // namespace powerlens::linalg::kernels
