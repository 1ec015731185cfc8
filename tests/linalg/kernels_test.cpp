// Blocked kernels vs textbook oracles. The contract under test is stronger
// than numerical closeness: every kernel must be BITWISE identical to its
// fixed reference reduction shape (see kernels.hpp) — the 4-lane tree for
// the contiguous-k kernels (gemm_nt, affine, gemv), the naive
// single-accumulator ascending-k loop for the output-contiguous ones
// (gemm_nn, gemm_tn, col_sums) — across shapes that exercise every
// register-tile and cache-block edge case, and identical whether calls run
// sequentially or concurrently on many threads. Dispatch-path equivalence
// (scalar vs SIMD bitwise identity) is covered separately in
// kernels_dispatch_test.cpp; this file pins the shape of the arithmetic
// itself under whichever path is active.
#include "linalg/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <random>
#include <thread>
#include <vector>

namespace powerlens::linalg::kernels {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  for (double& v : m.data()) v = dist(rng);
  return m;
}

// The contract's fixed 4-lane accumulator tree: lane l sums the products
// with reduction index p ≡ l (mod 4) in ascending p, then the lanes
// combine as (l0 + l1) + (l2 + l3). This is the reference reduction for
// every kernel whose k axis is contiguous in both operands.
double lane_tree_dot(const double* x, const double* y, std::size_t k) {
  double lanes[kLanes] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t p = 0; p < k; ++p) lanes[p % kLanes] += x[p] * y[p];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

// Reference for the output-contiguous kernels: one accumulator per output
// element, ascending k.
Matrix naive_nn(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

// Reference for gemm_nt: 4-lane tree over the contiguous rows of A and B.
Matrix naive_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  const std::size_t k = a.cols();
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* ai = a.data().data() + i * k;
    for (std::size_t j = 0; j < b.rows(); ++j) {
      c(i, j) = lane_tree_dot(ai, b.data().data() + j * k, k);
    }
  }
  return c;
}

Matrix naive_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.rows(); ++k) acc += a(k, i) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

void expect_bitwise_equal(const Matrix& got, const Matrix& want,
                          const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j < got.cols(); ++j) {
      ASSERT_EQ(got(i, j), want(i, j))
          << what << " differs at (" << i << ", " << j << ")";
    }
  }
}

// Shapes hitting: scalars, below/at/above the 4x4 register tile, odd sizes,
// and the kBlockCols=64 / (via k) kBlockDepth=256 cache-block boundaries.
const std::size_t kShapes[] = {1, 2, 3, 4, 5, 7, 8, 15, 16, 17,
                               31, 32, 33, 63, 64, 65};

TEST(Gemm, MatchesNaiveOracleAcrossShapeGauntlet) {
  std::uint64_t seed = 1;
  for (const std::size_t m : {1ul, 3ul, 4ul, 5ul, 17ul, 64ul, 65ul}) {
    for (const std::size_t n : kShapes) {
      for (const std::size_t k : {1ul, 2ul, 7ul, 16ul, 33ul, 65ul}) {
        const Matrix a = random_matrix(m, k, seed++);
        const Matrix b = random_matrix(k, n, seed++);
        expect_bitwise_equal(matmul(a, b), naive_nn(a, b), "gemm_nn");
        const Matrix bt = random_matrix(n, k, seed++);
        expect_bitwise_equal(matmul_nt(a, bt), naive_nt(a, bt), "gemm_nt");
        const Matrix at = random_matrix(k, m, seed++);
        expect_bitwise_equal(matmul_tn(at, b), naive_tn(at, b), "gemm_tn");
      }
    }
  }
}

TEST(Gemm, DeepInnerDimensionCrossesKPanelBoundary) {
  // k > kBlockDepth forces multi-panel accumulation through memory for the
  // output-contiguous kernels (per-element order must stay plain ascending
  // k), and for gemm_nt verifies the lane partials really span the whole
  // reduction (no panel round-trip collapses the tree).
  for (const std::size_t k : {255ul, 256ul, 257ul, 600ul}) {
    const Matrix a = random_matrix(5, k, 90 + k);
    const Matrix b = random_matrix(k, 6, 91 + k);
    expect_bitwise_equal(matmul(a, b), naive_nn(a, b), "gemm_nn deep-k");
    const Matrix bt = random_matrix(6, k, 92 + k);
    expect_bitwise_equal(matmul_nt(a, bt), naive_nt(a, bt), "gemm_nt deep-k");
    const Matrix at = random_matrix(k, 5, 93 + k);
    expect_bitwise_equal(matmul_tn(at, b), naive_tn(at, b), "gemm_tn deep-k");
  }
}

TEST(Gemm, AccumulateAddsOntoExistingValues) {
  // Output-contiguous kernels seed each element's accumulator with the
  // EXISTING C value and then add products in ascending k — the exact order
  // of the legacy `grad_w_(o, i) += go * x(r, i)` loops. The lane-tree
  // kernels instead join the existing value AFTER the tree combines.
  const Matrix a = random_matrix(9, 13, 7);
  const Matrix b = random_matrix(13, 11, 8);
  const Matrix at = random_matrix(13, 9, 9);

  Matrix c = random_matrix(9, 11, 10);
  Matrix want = c;
  for (std::size_t i = 0; i < want.rows(); ++i) {
    for (std::size_t j = 0; j < want.cols(); ++j) {
      double acc = want(i, j);
      for (std::size_t k = 0; k < 13; ++k) acc += a(i, k) * b(k, j);
      want(i, j) = acc;
    }
  }
  gemm_nn(9, 11, 13, a.data().data(), 13, b.data().data(), 11,
          c.data().data(), 11, /*accumulate=*/true);
  expect_bitwise_equal(c, want, "gemm_nn accumulate");

  Matrix ct = random_matrix(9, 11, 12);
  Matrix want_tn = ct;
  for (std::size_t i = 0; i < want_tn.rows(); ++i) {
    for (std::size_t j = 0; j < want_tn.cols(); ++j) {
      double acc = want_tn(i, j);
      for (std::size_t k = 0; k < 13; ++k) acc += at(k, i) * b(k, j);
      want_tn(i, j) = acc;
    }
  }
  matmul_tn_into(at, b, ct, /*accumulate=*/true);
  expect_bitwise_equal(ct, want_tn, "matmul_tn_into accumulate");

  const Matrix bt = random_matrix(11, 13, 13);
  Matrix cnt = random_matrix(9, 11, 14);
  Matrix want_nt = cnt;
  for (std::size_t i = 0; i < want_nt.rows(); ++i) {
    for (std::size_t j = 0; j < want_nt.cols(); ++j) {
      double v = lane_tree_dot(a.data().data() + i * 13,
                               bt.data().data() + j * 13, 13);
      v += want_nt(i, j);  // existing C joins after the tree
      want_nt(i, j) = v;
    }
  }
  gemm_nt(9, 11, 13, a.data().data(), 13, bt.data().data(), 13,
          cnt.data().data(), 11, /*accumulate=*/true);
  expect_bitwise_equal(cnt, want_nt, "gemm_nt accumulate");
}

TEST(Gemv, MatchesLaneTreeDotPerRow) {
  for (const std::size_t n : kShapes) {
    const Matrix a = random_matrix(17, n, 40 + n);
    std::vector<double> x(n);
    std::mt19937_64 rng(41 + n);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (double& v : x) v = dist(rng);

    std::vector<double> got(17, 0.0);
    gemv(17, n, a.data().data(), n, x.data(), got.data());
    std::vector<double> acc(17, 0.25);
    gemv(17, n, a.data().data(), n, x.data(), acc.data(),
         /*accumulate=*/true);
    for (std::size_t r = 0; r < 17; ++r) {
      const double tree = lane_tree_dot(a.data().data() + r * n, x.data(), n);
      ASSERT_EQ(got[r], tree) << "gemv row " << r << " n " << n;
      ASSERT_EQ(acc[r], tree + 0.25)
          << "gemv accumulate row " << r << " n " << n;
    }
  }
}

TEST(FusedAffine, MatchesLaneTreeDotPlusBiasThenRelu) {
  for (const std::size_t batch : {1ul, 3ul, 8ul, 33ul}) {
    for (const std::size_t out_dim : {1ul, 5ul, 64ul, 65ul}) {
      const std::size_t in_dim = 19;
      const Matrix x = random_matrix(batch, in_dim, 70 + batch);
      const Matrix w = random_matrix(out_dim, in_dim, 71 + out_dim);
      std::vector<double> bias(out_dim);
      std::mt19937_64 rng(72);
      std::uniform_real_distribution<double> dist(-1.0, 1.0);
      for (double& v : bias) v = dist(rng);

      for (const bool relu : {false, true}) {
        Matrix got(batch, out_dim);
        affine(batch, out_dim, in_dim, x.data().data(), in_dim,
               w.data().data(), in_dim, bias.data(), got.data().data(),
               out_dim, relu);
        for (std::size_t r = 0; r < batch; ++r) {
          for (std::size_t o = 0; o < out_dim; ++o) {
            double acc = lane_tree_dot(x.data().data() + r * in_dim,
                                       w.data().data() + o * in_dim, in_dim);
            acc += bias[o];  // bias joins after the complete tree
            if (relu) acc = acc > 0.0 ? acc : 0.0;
            ASSERT_EQ(got(r, o), acc)
                << "affine(" << r << ", " << o << ") relu=" << relu;
          }
        }
      }
    }
  }
}

TEST(ColSums, AscendingRowOrderWithAndWithoutAccumulate) {
  const Matrix g = random_matrix(21, 13, 55);
  std::vector<double> fresh(13, 123.0);  // must be overwritten, not added
  col_sums(21, 13, g.data().data(), 13, fresh.data());
  std::vector<double> acc(13, 0.5);
  col_sums(21, 13, g.data().data(), 13, acc.data(), /*accumulate=*/true);
  for (std::size_t j = 0; j < 13; ++j) {
    double want = 0.0;
    for (std::size_t r = 0; r < 21; ++r) want += g(r, j);
    EXPECT_EQ(fresh[j], want);
    double want_acc = 0.5;
    for (std::size_t r = 0; r < 21; ++r) want_acc += g(r, j);
    EXPECT_EQ(acc[j], want_acc);
  }
}

TEST(FusedAffine, ReluEpilogueNormalizesNanAndNegativeZero) {
  // `v = v > 0.0 ? v : 0.0`: NaN and -0.0 both map to +0.0. The fused
  // epilogue must preserve that exactly on every dispatch path.
  const double nan = std::nan("");
  Matrix x(1, 1);
  x(0, 0) = nan;
  Matrix w(1, 1);
  w(0, 0) = 1.0;
  const double bias[] = {0.0};
  Matrix out(1, 1);
  affine(1, 1, 1, x.data().data(), 1, w.data().data(), 1, bias,
         out.data().data(), 1, /*relu=*/true);
  EXPECT_EQ(out(0, 0), 0.0);
  EXPECT_FALSE(std::signbit(out(0, 0)));

  x(0, 0) = -0.0;
  const double bias2[] = {-0.0};
  affine(1, 1, 1, x.data().data(), 1, w.data().data(), 1, bias2,
         out.data().data(), 1, /*relu=*/true);
  EXPECT_EQ(out(0, 0), 0.0);
  EXPECT_FALSE(std::signbit(out(0, 0)));
}

TEST(Kernels, ZeroInnerDimensionYieldsZeroProduct) {
  // k == 0: an empty sum. The kernels must write zeros (or leave C alone
  // under accumulate), not read uninitialized panels.
  Matrix a(3, 0);
  Matrix b(0, 4);
  const Matrix c = matmul(a, b);
  for (const double v : c.data()) EXPECT_EQ(v, 0.0);
  Matrix acc = random_matrix(3, 4, 77);
  const Matrix before = acc;
  gemm_nn(3, 4, 0, a.data().data(), 0, b.data().data(), 4, acc.data().data(),
          4, /*accumulate=*/true);
  expect_bitwise_equal(acc, before, "gemm_nn k=0 accumulate");

  Matrix bt(4, 0);
  Matrix cnt = matmul_nt(a, bt);
  for (const double v : cnt.data()) EXPECT_EQ(v, 0.0);
}

TEST(Kernels, ConcurrentCallsAreBitwiseIdenticalToSequential) {
  // The serving layer runs one kernel stream per worker thread; concurrent
  // invocations over the same inputs must produce byte-identical outputs.
  const Matrix a = random_matrix(47, 33, 100);
  const Matrix b = random_matrix(33, 29, 101);
  const Matrix sequential = matmul(a, b);

  constexpr std::size_t kThreads = 8;
  std::vector<Matrix> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { results[t] = matmul(a, b); });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    expect_bitwise_equal(results[t], sequential, "concurrent matmul");
  }
}

TEST(Kernels, ShapeMismatchThrows) {
  const Matrix a = random_matrix(3, 4, 1);
  const Matrix b = random_matrix(5, 6, 2);
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  EXPECT_THROW(matmul_nt(a, b), std::invalid_argument);
  EXPECT_THROW(matmul_tn(a, b), std::invalid_argument);
}

// The contract's reduction for syrk_nt: ONE fused multiply-add chain over
// ascending p, acc = fma(a[p], b[p], acc) from 0. std::fma is the
// correctly-rounded fused op, so this scalar reference is bitwise the
// kernel's on every dispatch path — whether the entry came from a
// broadcast tile lane or a scalar edge.
double fma_chain_dot(const double* x, const double* y, std::size_t k) {
  double acc = 0.0;
  for (std::size_t p = 0; p < k; ++p) acc = std::fma(x[p], y[p], acc);
  return acc;
}

TEST(SyrkNt, MatchesFmaChainLowerTriangleAndLeavesUpperUntouched) {
  // The contract: syrk_nt(i, j) for j <= i is bitwise the ascending fused
  // chain of rows i and j, and no byte above the diagonal is written (the
  // diagonal-crossing tiles must discard their above-diagonal lanes).
  // Shapes cover quad edges (n % 4 in every residue), strip edges around
  // the 8-wide tiles, and small-n all-scalar paths.
  const struct {
    std::size_t n, k;
  } shapes[] = {{1, 1}, {2, 3},  {3, 4},   {4, 4},   {5, 7},  {8, 5},
                {9, 13}, {12, 8}, {17, 36}, {33, 22}, {70, 9}};
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s.n, s.k, 900 + s.n);
    Matrix tri(s.n, s.n);
    for (double& v : tri.data()) v = -123.25;  // sentinel
    std::vector<double> at(s.k * s.n);
    syrk_nt(s.n, s.k, a.data().data(), s.k, at.data(), tri.data().data(),
            s.n);
    for (std::size_t i = 0; i < s.n; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        if (j <= i) {
          ASSERT_EQ(tri(i, j),
                    fma_chain_dot(a.data().data() + i * s.k,
                                  a.data().data() + j * s.k, s.k))
              << "n=" << s.n << " k=" << s.k << " (" << i << ", " << j << ")";
        } else {
          ASSERT_EQ(tri(i, j), -123.25)
              << "upper triangle written at (" << i << ", " << j << ")";
        }
      }
    }
  }
}

// The lower-triangle Gram of a random n x k table, as syrk_nt leaves it.
Matrix lower_gram(std::size_t n, std::size_t k, std::uint64_t seed) {
  const Matrix y = random_matrix(n, k, seed);
  Matrix gram(n, n);
  std::vector<double> at(k * n);
  syrk_nt(n, k, y.data().data(), k, at.data(), gram.data().data(), n);
  return gram;
}

// Scalar reference for the distance epilogue: the FULL symmetric matrix
// sqrt(max(n_i + n_j - 2 g(i,j), 0)), zero diagonal. Equality with the
// kernels must be exact: (-2)*g is bitwise -(2*g), a + (-b) is a - b, and
// sqrt is correctly rounded everywhere.
Matrix reference_distances(const Matrix& gram) {
  const std::size_t n = gram.rows();
  Matrix want(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double dd = std::sqrt(
          std::max(gram(i, i) + gram(j, j) - 2.0 * gram(i, j), 0.0));
      want(i, j) = dd;
      want(j, i) = dd;
    }
    want(i, i) = 0.0;
  }
  return want;
}

// Scalar reference for the blend over a full matrix:
//   alpha · (d(i, j) · inv_max) + beta · penalty[|i - j|].
Matrix reference_blend(const Matrix& d, double alpha, double inv_max,
                       double beta, const std::vector<double>& penalty) {
  Matrix want = d;
  for (std::size_t i = 0; i < d.rows(); ++i) {
    for (std::size_t j = 0; j < d.cols(); ++j) {
      const std::size_t off = i < j ? j - i : i - j;
      want(i, j) = alpha * (want(i, j) * inv_max) + beta * penalty[off];
    }
  }
  return want;
}

// gram_blend_adj's lower triangle + diagonal (the diagonal prepass fills
// `diag` first, as the distance pipeline does).
Matrix blend_lower(const Matrix& gram, double alpha, double inv_max,
                   double beta, const std::vector<double>& penalty,
                   double eps) {
  const std::size_t n = gram.rows();
  std::vector<double> diag(n);
  double max_d = 0.0;
  gram_dist_max(n, gram.data().data(), n, diag.data(), &max_d);
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> bits(n * words);
  std::vector<std::size_t> degree(n);
  Matrix out(n, n);
  gram_blend_adj(n, gram.data().data(), n, diag.data(), alpha, inv_max, beta,
                 penalty.data(), out.data().data(), n, eps, bits.data(),
                 words, degree.data());
  return out;
}

void expect_lower_bitwise(const Matrix& got, const Matrix& want,
                          const char* what) {
  for (std::size_t i = 0; i < got.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      ASSERT_EQ(got(i, j), want(i, j))
          << what << " n=" << got.rows() << " (" << i << ", " << j << ")";
    }
  }
}

TEST(GramToDist, MatchesScalarMirrorReferenceBitwise) {
  // The distance epilogue inside gram_blend_adj, isolated with the identity
  // blend (alpha = 1, inv_max = 1, beta = 0): 1 · (v · 1) + 0 · p is v.
  for (const std::size_t n : {1UL, 2UL, 5UL, 8UL, 17UL, 64UL, 71UL}) {
    const Matrix gram = lower_gram(n, 11, 1700 + n);
    const std::vector<double> zero_penalty(n, 0.0);
    expect_lower_bitwise(blend_lower(gram, 1.0, 1.0, 0.0, zero_penalty, 1e300),
                         reference_distances(gram), "distance epilogue");
  }
}

TEST(DistBlend, MatchesScalarReferenceBitwise) {
  for (const std::size_t n : {1UL, 3UL, 4UL, 9UL, 33UL, 66UL}) {
    const Matrix gram = lower_gram(n, 7, 2600 + n);
    std::vector<double> penalty(n);
    for (std::size_t t = 0; t < n; ++t) {
      penalty[t] = 1.0 - std::exp(-0.05 * static_cast<double>(t));
    }
    const double alpha = 0.65;
    const double inv_max = 0.8125;
    const double beta = 1.0 - alpha;
    const Matrix want = reference_blend(reference_distances(gram), alpha,
                                        inv_max, beta, penalty);
    expect_lower_bitwise(blend_lower(gram, alpha, inv_max, beta, penalty, 0.5),
                         want, "blend");
  }
}

TEST(GramDistMax, MatchesFullMatrixMaxBitwise) {
  // The prepass must agree bitwise with materializing the whole distance
  // matrix and taking its max: sqrt and max0 are monotone, so folding the
  // max over RAW squared distances before the sqrt(max0(·)) epilogue lands
  // on the identical double.
  for (const std::size_t n : {1UL, 2UL, 4UL, 7UL, 16UL, 33UL, 70UL}) {
    const Matrix gram = lower_gram(n, 9, 3100 + n);
    const Matrix dist = reference_distances(gram);
    double want_max = 0.0;
    for (const double v : dist.data()) want_max = std::max(want_max, v);

    std::vector<double> diag(n, -1.0);
    double got_max = -1.0;
    gram_dist_max(n, gram.data().data(), n, diag.data(), &got_max);
    EXPECT_EQ(got_max, want_max) << "n=" << n;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(diag[i], gram(i, i)) << "n=" << n << " i=" << i;
    }
  }
}

TEST(GramBlendAdj, MatchesTwoKernelPipelineOnLowerTriangle) {
  // One fused sweep vs the scalar full-matrix pipeline (distances, max
  // scan, blend, ε-scan of every row): lower triangle + diagonal bitwise
  // equal, upper triangle untouched, and the symmetric ε-bitmap + degrees
  // identical.
  for (const std::size_t n : {1UL, 3UL, 4UL, 8UL, 17UL, 63UL, 64UL, 65UL}) {
    const Matrix gram = lower_gram(n, 6, 4400 + n);
    std::vector<double> penalty(n);
    for (std::size_t t = 0; t < n; ++t) {
      penalty[t] = 1.0 - std::exp(-0.15 * static_cast<double>(t));
    }
    const double alpha = 0.7;
    const double beta = 1.0 - alpha;
    const std::size_t words = (n + 63) / 64;

    const Matrix dist = reference_distances(gram);
    double max_d = 0.0;
    for (const double v : dist.data()) max_d = std::max(max_d, v);
    const double inv_max = max_d > 0.0 ? 1.0 / max_d : 1.0;
    const double eps = 0.6 * max_d > 0.0 ? 0.6 * max_d : 0.5;
    const Matrix want = reference_blend(dist, alpha, inv_max, beta, penalty);
    std::vector<std::uint64_t> want_bits(n * words, 0);
    std::vector<std::size_t> want_deg(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (want(i, j) <= eps) {
          want_bits[i * words + j / 64] |= std::uint64_t{1} << (j % 64);
          ++want_deg[i];
        }
      }
    }

    std::vector<double> diag(n);
    double prepass_max = 0.0;
    gram_dist_max(n, gram.data().data(), n, diag.data(), &prepass_max);
    ASSERT_EQ(prepass_max, max_d) << "n=" << n;
    Matrix got(n, n);
    for (double& v : got.data()) v = -321.5;  // sentinel
    std::vector<std::uint64_t> got_bits(n * words, ~std::uint64_t{0});
    std::vector<std::size_t> got_deg(n, 999);
    gram_blend_adj(n, gram.data().data(), n, diag.data(), alpha, inv_max,
                   beta, penalty.data(), got.data().data(), n, eps,
                   got_bits.data(), words, got_deg.data());

    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (j <= i) {
          ASSERT_EQ(got(i, j), want(i, j))
              << "n=" << n << " (" << i << ", " << j << ")";
        } else {
          ASSERT_EQ(got(i, j), -321.5)
              << "upper triangle written at (" << i << ", " << j << ")";
        }
      }
    }
    EXPECT_EQ(got_bits, want_bits) << "n=" << n;
    EXPECT_EQ(got_deg, want_deg) << "n=" << n;
  }
}

}  // namespace
}  // namespace powerlens::linalg::kernels
