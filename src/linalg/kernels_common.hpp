// Internal to src/linalg: the kernel dispatch table and the ISA-generic
// kernel bodies, templated over a 4-lane vector policy (`Ops`).
//
// Each backend TU (kernels_scalar.cpp, kernels_avx2.cpp, kernels_neon.cpp)
// defines an Ops type mapping the fixed kLanes=4 contract onto its hardware
// — four plain doubles, one __m256d, or two float64x2_t — and instantiates
// the bodies below into a KernelTable. The bodies are the ONLY place kernel
// arithmetic lives, so the reduction shape documented in kernels.hpp is
// enforced structurally: a backend cannot reorder additions, it can only
// choose how the four lanes are stored.
//
// Ops policy requirements (all static):
//   Vec                        — 4 doubles of register state
//   Vec  zero()
//   Vec  broadcast(double)
//   Vec  load(const double*)   — 4 contiguous doubles, unaligned ok
//   void store(double*, Vec)
//   Vec  mul_add(Vec acc, Vec x, Vec y)
//        — per lane: acc + x * y, computed as an explicit multiply THEN an
//          add. Backends must not emit a fused multiply-add (the scalar
//          path cannot, because the whole project builds with
//          -ffp-contract=off, and the SIMD paths use separate mul/add
//          intrinsics), or lane sums would diverge across ISAs.
//   Vec  add(Vec, Vec)
//   Vec  mul(Vec, Vec)         — per-lane product (single rounding)
//   Vec  max0(Vec)             — per lane: v > 0 ? v : 0 (the ReLU clamp:
//          NaN and -0.0 both normalize to +0.0 — AVX2 uses cmp_gt + and,
//          NEON vcgt + bit-and, so all paths agree even on those inputs)
//   Vec  sqrt(Vec)             — IEEE-754 correctly-rounded square root.
//          sqrtsd/vsqrtpd/vsqrtq_f64 and std::sqrt all round correctly,
//          so the result is bitwise identical on every path by spec.
//   Vec  reverse(Vec)          — lane order 3,2,1,0 (a pure permutation;
//          used to walk a lookup table downward with contiguous loads)
//   Vec  max(Vec, Vec)         — per-lane maximum. Consumers only use it
//          for order-independent max folds whose result feeds max0, so for
//          non-NaN lanes any tie/zero-sign convention is acceptable (maxpd
//          and `a > b ? a : b` agree up to the sign of zero, which max0
//          normalizes away).
//   Vec  fma(Vec acc, Vec x, Vec y)
//        — per lane: acc + x * y as a FUSED multiply-add (one rounding).
//          IEEE-754 pins the fused result exactly, so vfmadd / vfmaq_f64 /
//          std::fma are bitwise identical on every path — unlike mul_add,
//          whose two roundings only agree because each backend is barred
//          from contracting. Reserved for kernels whose reduction shape is
//          DOCUMENTED as fused (today: syrk_nt, the Gram matrix of the
//          distance pipeline, where fusing doubles multiply-add
//          throughput); the training-math kernels stay on mul_add because
//          their outputs are pinned by committed model checkpoints.
//   unsigned le_mask(Vec v, Vec t) — bit l (0..3) set iff lane l of v is
//          <= lane l of t, ORDERED: a NaN lane compares false on every
//          path (_CMP_LE_OQ, vcleq_f64, and scalar `<=` all agree).
#pragma once

#include "linalg/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

namespace powerlens::linalg::kernels::detail {

struct KernelTable {
  DispatchPath path;
  const char* name;
  void (*gemm_nn)(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb, double* c,
                  std::size_t ldc, bool accumulate);
  // Shared implementation of gemm_nt and affine: optional fused epilogue
  // (accumulate-add, bias add, ReLU) applied after the lane tree.
  void (*gemm_nt_fused)(std::size_t m, std::size_t n, std::size_t k,
                        const double* a, std::size_t lda, const double* b,
                        std::size_t ldb, double* c, std::size_t ldc,
                        bool accumulate, const double* bias, bool relu);
  void (*gemm_tn)(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb, double* c,
                  std::size_t ldc, bool accumulate);
  void (*gemv)(std::size_t m, std::size_t n, const double* a, std::size_t lda,
               const double* x, double* y, bool accumulate);
  void (*col_sums)(std::size_t m, std::size_t n, const double* g,
                   std::size_t ldg, double* out, bool accumulate);
  // `at` is k x n caller scratch (clobbered): the kernel transposes A into
  // it so the rank-1 update loop streams contiguous rows.
  void (*syrk_nt)(std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, double* at, double* c, std::size_t ldc);
  void (*cost_plane_fill)(std::size_t layers, const double* flops,
                          const double* eff, const double* memory_s,
                          const unsigned char* active,
                          const CostPlaneTerms& terms, double* time_out,
                          double* energy_out);
  // Triangular distance-pipeline prepass: Gram diagonal into scratch plus
  // the distance-matrix maximum, without materializing any matrix.
  void (*gram_dist_max)(std::size_t n, const double* g, std::size_t ldg,
                        double* scratch, double* max_out);
  // Fused triangular distance + blend + symmetric ε-adjacency emission.
  void (*gram_blend_adj)(std::size_t n, const double* g, std::size_t ldg,
                         const double* scratch, double alpha, double inv_max,
                         double beta, const double* penalty, double* out,
                         std::size_t ldo, double eps, std::uint64_t* bits,
                         std::size_t words, std::size_t* degree);
};

// Backend accessors. Only the tables that were compiled in are declared
// available; kernels.cpp gates on the same macros.
const KernelTable& scalar_table();
#if defined(POWERLENS_HAVE_AVX2)
const KernelTable& avx2_table();
#endif
#if defined(POWERLENS_HAVE_NEON)
const KernelTable& neon_table();
#endif

// ---- ISA-generic bodies ----

// Finish one lane-tree element: spill the vector accumulator, fold the
// scalar tail (reduction indices [k4, k), which land in lanes p mod 4
// because k4 is a multiple of 4), and combine in the fixed tree order.
template <class Ops>
inline double lane_finish(typename Ops::Vec acc, const double* x,
                          const double* y, std::size_t k4, std::size_t k) {
  double lanes[kLanes];
  Ops::store(lanes, acc);
  for (std::size_t p = k4; p < k; ++p) lanes[p - k4] += x[p] * y[p];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

// Full lane-tree dot product of two contiguous k-vectors.
template <class Ops>
inline double lane_dot(const double* x, const double* y, std::size_t k) {
  typename Ops::Vec acc = Ops::zero();
  const std::size_t k4 = k & ~std::size_t{3};
  for (std::size_t p = 0; p < k4; p += 4) {
    acc = Ops::mul_add(acc, Ops::load(x + p), Ops::load(y + p));
  }
  return lane_finish<Ops>(acc, x, y, k4, k);
}


// C = A · Bᵀ (+ fused epilogue). Fixed 4-lane tree per element; lane
// partials stay in registers across the whole reduction, so there is no
// k-panel loop here (a round-trip through one stored double per element
// would collapse the tree). B rows are blocked by kBlockCols for reuse.
// The epilogue is scalar and shared verbatim by every backend: accumulate
// joins the existing C value after the tree, then bias, then ReLU (written
// `v > 0 ? v : 0`, so NaN and -0.0 normalize to +0.0 on every path).
template <class Ops>
void gemm_nt_fused_body(std::size_t m, std::size_t n, std::size_t k,
                        const double* a, std::size_t lda, const double* b,
                        std::size_t ldb, double* c, std::size_t ldc,
                        bool accumulate, const double* bias, bool relu) {
  using Vec = typename Ops::Vec;
  const std::size_t k4 = k & ~std::size_t{3};
  const auto epilogue = [&](std::size_t i, std::size_t j, double v) {
    if (accumulate) v += c[i * ldc + j];
    if (bias != nullptr) v += bias[j];
    if (relu) v = v > 0.0 ? v : 0.0;
    c[i * ldc + j] = v;
  };
  for (std::size_t j0 = 0; j0 < n; j0 += kBlockCols) {
    const std::size_t j1 = std::min(n, j0 + kBlockCols);
    std::size_t i = 0;
    for (; i + kRegRows <= m; i += kRegRows) {
      const double* ar[kRegRows] = {a + (i + 0) * lda, a + (i + 1) * lda,
                                    a + (i + 2) * lda, a + (i + 3) * lda};
      std::size_t j = j0;
      // 4 rows x 2 B-columns: 8 live accumulators, B loads amortized
      // across the row quad.
      for (; j + 2 <= j1; j += 2) {
        const double* b0 = b + (j + 0) * ldb;
        const double* b1 = b + (j + 1) * ldb;
        Vec acc[kRegRows][2];
        for (std::size_t r = 0; r < kRegRows; ++r) {
          acc[r][0] = Ops::zero();
          acc[r][1] = Ops::zero();
        }
        for (std::size_t p = 0; p < k4; p += 4) {
          const Vec bv0 = Ops::load(b0 + p);
          const Vec bv1 = Ops::load(b1 + p);
          for (std::size_t r = 0; r < kRegRows; ++r) {
            const Vec av = Ops::load(ar[r] + p);
            acc[r][0] = Ops::mul_add(acc[r][0], av, bv0);
            acc[r][1] = Ops::mul_add(acc[r][1], av, bv1);
          }
        }
        for (std::size_t r = 0; r < kRegRows; ++r) {
          epilogue(i + r, j + 0, lane_finish<Ops>(acc[r][0], ar[r], b0, k4, k));
          epilogue(i + r, j + 1, lane_finish<Ops>(acc[r][1], ar[r], b1, k4, k));
        }
      }
      for (; j < j1; ++j) {
        const double* bj = b + j * ldb;
        for (std::size_t r = 0; r < kRegRows; ++r) {
          epilogue(i + r, j, lane_dot<Ops>(ar[r], bj, k));
        }
      }
    }
    for (; i < m; ++i) {
      const double* ai = a + i * lda;
      for (std::size_t j = j0; j < j1; ++j) {
        epilogue(i, j, lane_dot<Ops>(ai, b + j * ldb, k));
      }
    }
  }
}

// C = A · B. One ascending-k accumulator per output element (each element
// lives in one lane for the whole reduction — SIMD only spans independent
// output columns j, so the addition order per element is the textbook
// scalar loop, unchanged from the PR-5 kernels). k-panels accumulate
// through exact stores.
template <class Ops>
void gemm_nn_body(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb, double* c,
                  std::size_t ldc, bool accumulate) {
  using Vec = typename Ops::Vec;
  for (std::size_t p0 = 0; p0 < k || p0 == 0; p0 += kBlockDepth) {
    const std::size_t p1 = std::min(k, p0 + kBlockDepth);
    const bool fresh = p0 == 0 && !accumulate;
    for (std::size_t j0 = 0; j0 < n || j0 == 0; j0 += kBlockCols) {
      const std::size_t j1 = std::min(n, j0 + kBlockCols);
      std::size_t i = 0;
      for (; i + kRegRows <= m; i += kRegRows) {
        const double* ar[kRegRows] = {a + (i + 0) * lda, a + (i + 1) * lda,
                                      a + (i + 2) * lda, a + (i + 3) * lda};
        std::size_t j = j0;
        // 4 rows x 8 output columns (two vectors per row).
        for (; j + 8 <= j1; j += 8) {
          Vec t[kRegRows][2];
          for (std::size_t r = 0; r < kRegRows; ++r) {
            double* cr = c + (i + r) * ldc + j;
            t[r][0] = fresh ? Ops::zero() : Ops::load(cr);
            t[r][1] = fresh ? Ops::zero() : Ops::load(cr + 4);
          }
          for (std::size_t p = p0; p < p1; ++p) {
            const double* bp = b + p * ldb + j;
            const Vec bv0 = Ops::load(bp);
            const Vec bv1 = Ops::load(bp + 4);
            for (std::size_t r = 0; r < kRegRows; ++r) {
              const Vec av = Ops::broadcast(ar[r][p]);
              t[r][0] = Ops::mul_add(t[r][0], av, bv0);
              t[r][1] = Ops::mul_add(t[r][1], av, bv1);
            }
          }
          for (std::size_t r = 0; r < kRegRows; ++r) {
            double* cr = c + (i + r) * ldc + j;
            Ops::store(cr, t[r][0]);
            Ops::store(cr + 4, t[r][1]);
          }
        }
        for (; j + 4 <= j1; j += 4) {
          Vec t[kRegRows];
          for (std::size_t r = 0; r < kRegRows; ++r) {
            double* cr = c + (i + r) * ldc + j;
            t[r] = fresh ? Ops::zero() : Ops::load(cr);
          }
          for (std::size_t p = p0; p < p1; ++p) {
            const Vec bv = Ops::load(b + p * ldb + j);
            for (std::size_t r = 0; r < kRegRows; ++r) {
              t[r] = Ops::mul_add(t[r], Ops::broadcast(ar[r][p]), bv);
            }
          }
          for (std::size_t r = 0; r < kRegRows; ++r) {
            Ops::store(c + (i + r) * ldc + j, t[r]);
          }
        }
        for (; j < j1; ++j) {
          for (std::size_t r = 0; r < kRegRows; ++r) {
            double acc = fresh ? 0.0 : c[(i + r) * ldc + j];
            for (std::size_t p = p0; p < p1; ++p) {
              acc += ar[r][p] * b[p * ldb + j];
            }
            c[(i + r) * ldc + j] = acc;
          }
        }
      }
      for (; i < m; ++i) {
        const double* ai = a + i * lda;
        std::size_t j = j0;
        for (; j + 4 <= j1; j += 4) {
          Vec t = fresh ? Ops::zero() : Ops::load(c + i * ldc + j);
          for (std::size_t p = p0; p < p1; ++p) {
            t = Ops::mul_add(t, Ops::broadcast(ai[p]), Ops::load(b + p * ldb + j));
          }
          Ops::store(c + i * ldc + j, t);
        }
        for (; j < j1; ++j) {
          double acc = fresh ? 0.0 : c[i * ldc + j];
          for (std::size_t p = p0; p < p1; ++p) acc += ai[p] * b[p * ldb + j];
          c[i * ldc + j] = acc;
        }
      }
      if (n == 0) break;
    }
    if (k == 0) break;
  }
}

// C = Aᵀ · B. Same output-contiguous shape as gemm_nn (one ascending-k
// accumulator per element; SIMD across output columns only); A is read
// down a column, so the row value is broadcast from a strided load.
template <class Ops>
void gemm_tn_body(std::size_t m, std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, const double* b, std::size_t ldb, double* c,
                  std::size_t ldc, bool accumulate) {
  using Vec = typename Ops::Vec;
  for (std::size_t p0 = 0; p0 < k || p0 == 0; p0 += kBlockDepth) {
    const std::size_t p1 = std::min(k, p0 + kBlockDepth);
    const bool fresh = p0 == 0 && !accumulate;
    for (std::size_t j0 = 0; j0 < n || j0 == 0; j0 += kBlockCols) {
      const std::size_t j1 = std::min(n, j0 + kBlockCols);
      std::size_t i = 0;
      for (; i + kRegRows <= m; i += kRegRows) {
        std::size_t j = j0;
        for (; j + 4 <= j1; j += 4) {
          Vec t[kRegRows];
          for (std::size_t r = 0; r < kRegRows; ++r) {
            t[r] = fresh ? Ops::zero() : Ops::load(c + (i + r) * ldc + j);
          }
          for (std::size_t p = p0; p < p1; ++p) {
            const double* ap = a + p * lda + i;
            const Vec bv = Ops::load(b + p * ldb + j);
            for (std::size_t r = 0; r < kRegRows; ++r) {
              t[r] = Ops::mul_add(t[r], Ops::broadcast(ap[r]), bv);
            }
          }
          for (std::size_t r = 0; r < kRegRows; ++r) {
            Ops::store(c + (i + r) * ldc + j, t[r]);
          }
        }
        for (; j < j1; ++j) {
          for (std::size_t r = 0; r < kRegRows; ++r) {
            double acc = fresh ? 0.0 : c[(i + r) * ldc + j];
            for (std::size_t p = p0; p < p1; ++p) {
              acc += a[p * lda + (i + r)] * b[p * ldb + j];
            }
            c[(i + r) * ldc + j] = acc;
          }
        }
      }
      for (; i < m; ++i) {
        std::size_t j = j0;
        for (; j + 4 <= j1; j += 4) {
          Vec t = fresh ? Ops::zero() : Ops::load(c + i * ldc + j);
          for (std::size_t p = p0; p < p1; ++p) {
            t = Ops::mul_add(t, Ops::broadcast(a[p * lda + i]),
                             Ops::load(b + p * ldb + j));
          }
          Ops::store(c + i * ldc + j, t);
        }
        for (; j < j1; ++j) {
          double acc = fresh ? 0.0 : c[i * ldc + j];
          for (std::size_t p = p0; p < p1; ++p) {
            acc += a[p * lda + i] * b[p * ldb + j];
          }
          c[i * ldc + j] = acc;
        }
      }
      if (n == 0) break;
    }
    if (k == 0) break;
  }
}

// y = A · x. Fixed 4-lane tree per row; the x vector load is shared across
// a quad of rows. Existing y joins after the tree when accumulating.
template <class Ops>
void gemv_body(std::size_t m, std::size_t n, const double* a, std::size_t lda,
               const double* x, double* y, bool accumulate) {
  using Vec = typename Ops::Vec;
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i + kRegRows <= m; i += kRegRows) {
    const double* ar[kRegRows] = {a + (i + 0) * lda, a + (i + 1) * lda,
                                  a + (i + 2) * lda, a + (i + 3) * lda};
    Vec acc[kRegRows];
    for (std::size_t r = 0; r < kRegRows; ++r) acc[r] = Ops::zero();
    for (std::size_t p = 0; p < n4; p += 4) {
      const Vec xv = Ops::load(x + p);
      for (std::size_t r = 0; r < kRegRows; ++r) {
        acc[r] = Ops::mul_add(acc[r], Ops::load(ar[r] + p), xv);
      }
    }
    for (std::size_t r = 0; r < kRegRows; ++r) {
      double v = lane_finish<Ops>(acc[r], ar[r], x, n4, n);
      if (accumulate) v += y[i + r];
      y[i + r] = v;
    }
  }
  for (; i < m; ++i) {
    double v = lane_dot<Ops>(a + i * lda, x, n);
    if (accumulate) v += y[i];
    y[i] = v;
  }
}

// out[j] (+)= sum over rows of G, ascending r. One accumulator per column;
// SIMD spans independent columns only, so per-column order is unchanged.
template <class Ops>
void col_sums_body(std::size_t m, std::size_t n, const double* g,
                   std::size_t ldg, double* out, bool accumulate) {
  using Vec = typename Ops::Vec;
  if (!accumulate) {
    for (std::size_t j = 0; j < n; ++j) out[j] = 0.0;
  }
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    Vec t = Ops::load(out + j);
    for (std::size_t r = 0; r < m; ++r) {
      t = Ops::add(t, Ops::load(g + r * ldg + j));
    }
    Ops::store(out + j, t);
  }
  for (; j < n; ++j) {
    double t = out[j];
    for (std::size_t r = 0; r < m; ++r) t += g[r * ldg + j];
    out[j] = t;
  }
}

// C lower triangle (j <= i, diagonal included) = A · Aᵀ for A (n x k, lda).
// Reduction contract: every entry is ONE fused multiply-add chain over
// ascending p,
//   acc = fma(a(i,p) · a(j,p) + acc),  p = 0..k-1, acc starts at 0
// — IEEE-754 pins each fused rounding, so vfmadd / vfmaq_f64 / std::fma
// agree bit for bit on every dispatch path, lane position irrelevant.
// syrk_nt feeds only the distance pipeline's Gram matrix (no committed
// checkpoint pins it), so unlike the training kernels it is free to take
// both the fused throughput and this rank-1-update dataflow: `at` (k x n
// caller scratch, clobbered) receives Aᵀ, whose rows then stream
// CONTIGUOUSLY through 4-row x 8-column register tiles — broadcasts of A
// against vector loads of Aᵀ, no horizontal reductions at all. For this
// codebase's small k (a few dozen) the per-element lane-tree spill was the
// old kernel's real bottleneck, not the multiplies. Tiles near the
// diagonal compute a few above-diagonal lanes and DISCARD them at store
// time; the upper triangle of C is left untouched (the symmetric
// consumers never read it).
template <class Ops>
void syrk_nt_body(std::size_t n, std::size_t k, const double* a,
                  std::size_t lda, double* at, double* c, std::size_t ldc) {
  using Vec = typename Ops::Vec;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t p = 0; p < k; ++p) at[p * n + i] = a[i * lda + p];
  }
  // One (i, j) as a scalar chain — the same ascending fused chain a vector
  // lane runs, so edge elements agree with tiled ones bit for bit.
  const auto chain = [&](std::size_t i, std::size_t j) {
    const double* ai = a + i * lda;
    const double* aj = a + j * lda;
    double acc = 0.0;
    for (std::size_t p = 0; p < k; ++p) acc = std::fma(ai[p], aj[p], acc);
    return acc;
  };
  std::size_t i = 0;
  for (; i + kRegRows <= n; i += kRegRows) {
    std::size_t j = 0;
    // 4x8 tiles, running PAST the diagonal into the quad's boundary: the
    // last tile of a row quad may cover columns above some rows' diagonal;
    // those lanes are computed and discarded at store time. Stops early
    // only when the strip would read past n (handled by scalar chains).
    for (; j <= i + kRegRows - 1 && j + 2 * kLanes <= n; j += 2 * kLanes) {
      Vec acc[kRegRows][2];
      for (std::size_t r = 0; r < kRegRows; ++r) {
        acc[r][0] = Ops::zero();
        acc[r][1] = Ops::zero();
      }
      for (std::size_t p = 0; p < k; ++p) {
        const double* atp = at + p * n + j;
        const Vec b0 = Ops::load(atp);
        const Vec b1 = Ops::load(atp + kLanes);
        for (std::size_t r = 0; r < kRegRows; ++r) {
          const Vec av = Ops::broadcast(a[(i + r) * lda + p]);
          acc[r][0] = Ops::fma(acc[r][0], av, b0);
          acc[r][1] = Ops::fma(acc[r][1], av, b1);
        }
      }
      for (std::size_t r = 0; r < kRegRows; ++r) {
        const std::size_t row = i + r;
        double* cr = c + row * ldc;
        if (j + 2 * kLanes <= row + 1) {
          Ops::store(cr + j, acc[r][0]);
          Ops::store(cr + j + kLanes, acc[r][1]);
        } else if (j <= row) {
          double lanes[2 * kLanes];
          Ops::store(lanes, acc[r][0]);
          Ops::store(lanes + kLanes, acc[r][1]);
          for (std::size_t l = 0; j + l <= row && l < 2 * kLanes; ++l) {
            cr[j + l] = lanes[l];
          }
        }
      }
    }
    // Right edge (strip would read past n): at most a handful of columns
    // on the final quads.
    for (std::size_t r = 0; r < kRegRows; ++r) {
      for (std::size_t jj = j; jj <= i + r; ++jj) {
        c[(i + r) * ldc + jj] = chain(i + r, jj);
      }
    }
  }
  // Last n % 4 rows: single-row 8-wide strips, scalar chains past the last
  // full strip.
  for (; i < n; ++i) {
    const double* ai = a + i * lda;
    double* ci = c + i * ldc;
    std::size_t j = 0;
    for (; j + 2 * kLanes <= i + 1; j += 2 * kLanes) {
      Vec acc0 = Ops::zero();
      Vec acc1 = Ops::zero();
      for (std::size_t p = 0; p < k; ++p) {
        const double* atp = at + p * n + j;
        const Vec av = Ops::broadcast(ai[p]);
        acc0 = Ops::fma(acc0, av, Ops::load(atp));
        acc1 = Ops::fma(acc1, av, Ops::load(atp + kLanes));
      }
      Ops::store(ci + j, acc0);
      Ops::store(ci + j + kLanes, acc1);
    }
    for (; j <= i; ++j) ci[j] = chain(i, j);
  }
}

// Triangular distance-pipeline prepass over a lower-triangle Gram matrix:
// fills `scratch` with the Gram diagonal and computes the maximum of the
// pairwise distances sqrt(max0(t(i, j))) — without writing a single
// matrix element. The fold runs over the RAW squared distances
//   t(i, j) = (g(i,i) + g(j,j)) + (-2)·g(i, j)          (j < i)
// and applies the max0 + sqrt epilogue once, to the fold result. Both
// max0 and the correctly-rounded sqrt are monotone non-decreasing maps,
// so sqrt(max0(max t)) is bitwise identical to max over sqrt(max0(t)),
// the per-element scan a scalar full-matrix loop runs. The fold itself
// is order-independent for non-NaN inputs up to the sign of zero, which
// max0 normalizes, so scalar tail, vector lanes, and every dispatch path
// agree bit for bit. Seeding the fold with 0.0 matches a 0.0-seeded scan
// over non-negative roots.
template <class Ops>
void gram_dist_max_body(std::size_t n, const double* g, std::size_t ldg,
                        double* scratch, double* max_out) {
  using Vec = typename Ops::Vec;
  for (std::size_t i = 0; i < n; ++i) scratch[i] = g[i * ldg + i];
  const Vec neg2 = Ops::broadcast(-2.0);
  Vec vmax = Ops::zero();
  double smax = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Vec ni = Ops::broadcast(scratch[i]);
    const double* gi = g + i * ldg;
    const std::size_t j4 = i & ~std::size_t{3};
    std::size_t j = 0;
    for (; j < j4; j += 4) {
      const Vec s = Ops::add(ni, Ops::load(scratch + j));
      vmax = Ops::max(vmax, Ops::mul_add(s, neg2, Ops::load(gi + j)));
    }
    for (; j < i; ++j) {
      const double s = scratch[i] + scratch[j];
      const double t = s + -2.0 * gi[j];
      if (t > smax) smax = t;
    }
  }
  double lanes[kLanes];
  Ops::store(lanes, vmax);
  for (std::size_t l = 0; l < kLanes; ++l) {
    if (lanes[l] > smax) smax = lanes[l];
  }
  *max_out = std::sqrt(smax > 0.0 ? smax : 0.0);
}

// Fused triangular distance + blend + symmetric ε-adjacency: one sweep
// over the lower Gram triangle computes
//   out(i, j) = alpha · (sqrt(max0(t(i, j))) · inv_max) + beta · pen[i - j]
// for j < i plus a zero diagonal, and emits the full symmetric ε-bitmap.
// The distance term is (ni + nj) + (-2)·g — bitwise ni + nj - 2·g, since
// (-2)·g is exactly -(2·g) — and the blend runs inner product first, then
// the alpha scale, then one mul-then-add against the penalty term: scalar
// tail and vector lanes execute the same operations in the same order, so
// every written element is bitwise the plain scalar expression. The upper
// triangle of `out` is never touched: blended values are symmetric (same
// distance, same |i - j| penalty offset), so consumers read
// out(max(i,j), min(i,j)).
//
// Adjacency: `scratch` must hold the Gram diagonal (gram_dist_max fills
// it), `bits` n·words zero-initialized-by-this-kernel words. The ε test
// `v <= eps` runs IN REGISTER, on the very vector just stored
// (Ops::le_mask) — comparing the register value equals comparing the
// stored value, and le_mask is pinned ordered-≤ on every path, so the bit
// pattern matches a stored-value sweep of the full matrix exactly.
// The 4-bit lane mask lands at `j & 63` of row i's current word (j is a
// multiple of 4, so a nibble never straddles a word), and each set lane
// mirrors bit (j+l, i) with a single scattered OR into row j+l's bitmap —
// the bitmap is n·words·8 bytes total, cache-resident at this codebase's
// sizes, so the mirror costs no strided matrix traffic. Blended symmetry
// makes the mirrored bit exactly the bit row j's own full-row sweep would
// have set. The diagonal (blended value +0.0, eps > 0) always sets the
// self bit. Degrees are popcounts of the finished rows — pure integer
// arithmetic, identical on every path.
template <class Ops>
void gram_blend_adj_body(std::size_t n, const double* g, std::size_t ldg,
                         const double* scratch, double alpha, double inv_max,
                         double beta, const double* penalty, double* out,
                         std::size_t ldo, double eps, std::uint64_t* bits,
                         std::size_t words, std::size_t* degree) {
  using Vec = typename Ops::Vec;
  for (std::size_t w = 0; w < n * words; ++w) bits[w] = 0;
  const Vec neg2 = Ops::broadcast(-2.0);
  const Vec va = Ops::broadcast(alpha);
  const Vec vim = Ops::broadcast(inv_max);
  const Vec vb = Ops::broadcast(beta);
  const Vec veps = Ops::broadcast(eps);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec ni = Ops::broadcast(scratch[i]);
    const double* gi = g + i * ldg;
    double* oi = out + i * ldo;
    std::uint64_t* ri = bits + i * words;
    const std::size_t iw = i >> 6;
    const std::uint64_t ibit = std::uint64_t{1} << (i & 63);
    std::uint64_t word = 0;
    const std::size_t j4 = i & ~std::size_t{3};
    std::size_t j = 0;
    for (; j < j4; j += 4) {
      const Vec s = Ops::add(ni, Ops::load(scratch + j));
      const Vec t = Ops::mul_add(s, neg2, Ops::load(gi + j));
      const Vec v = Ops::sqrt(Ops::max0(t));
      const Vec scaled = Ops::mul(va, Ops::mul(v, vim));
      const Vec pen = Ops::reverse(Ops::load(penalty + (i - j - 3)));
      const Vec res = Ops::mul_add(scaled, vb, pen);
      Ops::store(oi + j, res);
      unsigned m = Ops::le_mask(res, veps);
      if (m != 0) {
        word |= static_cast<std::uint64_t>(m) << (j & 63);
        do {
          const unsigned l = static_cast<unsigned>(std::countr_zero(m));
          bits[(j + l) * words + iw] |= ibit;
          m &= m - 1;
        } while (m != 0);
      }
      if (((j + 4) & 63) == 0) {
        ri[j >> 6] |= word;
        word = 0;
      }
    }
    for (; j < i; ++j) {
      const double s = scratch[i] + scratch[j];
      const double t = s + -2.0 * gi[j];
      const double v = std::sqrt(t > 0.0 ? t : 0.0);
      const double res = alpha * (v * inv_max) + beta * penalty[i - j];
      oi[j] = res;
      if (res <= eps) {
        word |= std::uint64_t{1} << (j & 63);
        bits[j * words + iw] |= ibit;
      }
      if (((j + 1) & 63) == 0) {
        ri[j >> 6] |= word;
        word = 0;
      }
    }
    oi[i] = 0.0;
    // Self bit; `word` now holds only bits of block iw (all complete
    // earlier blocks were flushed at their 64-boundaries).
    ri[iw] |= word | ibit;
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t deg = 0;
    for (std::size_t w = 0; w < words; ++w) {
      deg += static_cast<std::size_t>(std::popcount(bits[i * words + w]));
    }
    degree[i] = deg;
  }
}

// Per-plane analytic cost fill. Elementwise scalar arithmetic only — each
// layer's outputs are independent expressions with no reductions, and
// divide/multiply/compare are identical IEEE operations on every backend,
// so one shared body serves all dispatch paths and is path-invariant by
// construction. It still routes through the KernelTable so dispatch
// overrides exercise it like any other kernel. The expressions mirror
// hw::LatencyModel::time_layer and hw::PowerModel::total_w term for term
// (see kernels.hpp); any edit here must stay bitwise in lockstep with
// those models.
template <class Ops>
void cost_plane_fill_body(std::size_t layers, const double* flops,
                          const double* eff, const double* memory_s,
                          const unsigned char* active,
                          const CostPlaneTerms& terms, double* time_out,
                          double* energy_out) {
  for (std::size_t l = 0; l < layers; ++l) {
    if (!active[l]) {
      time_out[l] = 0.0;
      energy_out[l] = 0.0;
      continue;
    }
    const double compute_s =
        flops[l] > 0.0 ? flops[l] / (eff[l] * terms.peak) : 0.0;
    const double mem_s = memory_s[l];
    const double kernel_s = std::max(compute_s, mem_s);
    const double total_s = kernel_s + terms.launch_s;
    double act_gpu = 0.0;
    double act_mem = 0.0;
    if (kernel_s > 0.0) {
      const double busy = kernel_s / total_s;
      const double duty = std::max(compute_s / kernel_s, terms.stall);
      act_gpu = duty * busy;
      act_mem = std::min(1.0, mem_s / kernel_s) * busy;
    }
    // Same association as PowerModel::total_w: (((dyn + static) + cpu)
    // + mem) + base, with the dynamic term's prefix product hoisted into
    // dyn_coeff (multiplication is left-associative, so the split is
    // exact).
    const double power_w =
        terms.dyn_coeff * std::clamp(act_gpu, 0.0, 1.0) + terms.static_w +
        terms.cpu_w + terms.mem_w * std::clamp(act_mem, 0.0, 1.0) +
        terms.base_w;
    time_out[l] = total_s;
    energy_out[l] = power_w * total_s;
  }
}

// Assemble a backend's table from the bodies above.
template <class Ops>
constexpr KernelTable make_table(DispatchPath path, const char* name) {
  return KernelTable{path,
                     name,
                     &gemm_nn_body<Ops>,
                     &gemm_nt_fused_body<Ops>,
                     &gemm_tn_body<Ops>,
                     &gemv_body<Ops>,
                     &col_sums_body<Ops>,
                     &syrk_nt_body<Ops>,
                     &cost_plane_fill_body<Ops>,
                     &gram_dist_max_body<Ops>,
                     &gram_blend_adj_body<Ops>};
}

}  // namespace powerlens::linalg::kernels::detail
