// Dispatch seam + shape-checked conveniences. The kernel arithmetic itself
// lives in kernels_common.hpp, instantiated per backend in
// kernels_scalar/avx2/neon.cpp; this file only picks which table runs.
//
// Resolution order (first match wins):
//   1. POWERLENS_FORCE_SCALAR build (-DPOWERLENS_SIMD=SCALAR): scalar,
//      unconditionally — no other backend is even compiled in.
//   2. set_path_override() — the test/bench pin.
//   3. POWERLENS_KERNEL_PATH env var: "scalar" | "simd" (best available
//      vector path, scalar if none) | "auto"/unset.
//   4. CPU detection: AVX2 if compiled in and the CPU reports it; NEON is
//      baseline on aarch64; otherwise scalar.
// The chosen table is cached in one atomic pointer; every path produces
// bitwise-identical results (kernels.hpp contract), so a theoretical race
// between first-use resolutions is benign — both writers store a table
// computing the same bits.
#include "linalg/kernels.hpp"

#include "linalg/kernels_common.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace powerlens::linalg::kernels {

namespace {

using detail::KernelTable;

const KernelTable* table_for(DispatchPath path) noexcept {
  switch (path) {
    case DispatchPath::kScalar:
      return &detail::scalar_table();
    case DispatchPath::kAvx2:
#if defined(POWERLENS_HAVE_AVX2)
      return &detail::avx2_table();
#else
      return nullptr;
#endif
    case DispatchPath::kNeon:
#if defined(POWERLENS_HAVE_NEON)
      return &detail::neon_table();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

bool cpu_supports(DispatchPath path) noexcept {
  switch (path) {
    case DispatchPath::kScalar:
      return true;
    case DispatchPath::kAvx2:
#if defined(POWERLENS_HAVE_AVX2)
      // The backend TU is compiled with -mavx2 -mfma (syrk_nt uses fused
      // multiply-adds), so both features must be present to dispatch there.
      return __builtin_cpu_supports("avx2") != 0 &&
             __builtin_cpu_supports("fma") != 0;
#else
      return false;
#endif
    case DispatchPath::kNeon:
      // NEON with double lanes is baseline aarch64; if the backend was
      // compiled in, the CPU has it.
      return table_for(DispatchPath::kNeon) != nullptr;
  }
  return false;
}

const KernelTable& best_simd_or_scalar() noexcept {
#if defined(POWERLENS_HAVE_AVX2)
  if (cpu_supports(DispatchPath::kAvx2)) return detail::avx2_table();
#endif
#if defined(POWERLENS_HAVE_NEON)
  return detail::neon_table();
#endif
  return detail::scalar_table();
}

const KernelTable& resolve_auto() noexcept {
#if defined(POWERLENS_FORCE_SCALAR)
  return detail::scalar_table();
#else
  if (const char* env = std::getenv("POWERLENS_KERNEL_PATH")) {
    if (std::strcmp(env, "scalar") == 0) return detail::scalar_table();
    if (std::strcmp(env, "simd") == 0) return best_simd_or_scalar();
    // "auto" or anything unrecognized falls through to detection.
  }
  return best_simd_or_scalar();
#endif
}

std::atomic<const KernelTable*> g_table{nullptr};

const KernelTable& table() noexcept {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = &resolve_auto();
    g_table.store(t, std::memory_order_release);
  }
  return *t;
}

}  // namespace

DispatchPath active_path() noexcept { return table().path; }

const char* path_name(DispatchPath path) noexcept {
  switch (path) {
    case DispatchPath::kScalar:
      return "scalar";
    case DispatchPath::kAvx2:
      return "avx2";
    case DispatchPath::kNeon:
      return "neon";
  }
  return "unknown";
}

bool path_available(DispatchPath path) noexcept {
#if defined(POWERLENS_FORCE_SCALAR)
  return path == DispatchPath::kScalar;
#else
  return table_for(path) != nullptr && cpu_supports(path);
#endif
}

void set_path_override(std::optional<DispatchPath> path) {
  if (!path.has_value()) {
    g_table.store(&resolve_auto(), std::memory_order_release);
    return;
  }
  if (!path_available(*path)) {
    throw std::invalid_argument(std::string("kernel path unavailable: ") +
                                path_name(*path));
  }
  g_table.store(table_for(*path), std::memory_order_release);
}

void gemm_nn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, bool accumulate) {
  table().gemm_nn(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

void gemm_nt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, bool accumulate) {
  table().gemm_nt_fused(m, n, k, a, lda, b, ldb, c, ldc, accumulate, nullptr,
                        false);
}

void gemm_tn(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, double* c,
             std::size_t ldc, bool accumulate) {
  table().gemm_tn(m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

void gemv(std::size_t m, std::size_t n, const double* a, std::size_t lda,
          const double* x, double* y, bool accumulate) {
  table().gemv(m, n, a, lda, x, y, accumulate);
}

void affine(std::size_t batch, std::size_t n, std::size_t k, const double* x,
            std::size_t ldx, const double* w, std::size_t ldw,
            const double* bias, double* out, std::size_t ldo, bool relu) {
  table().gemm_nt_fused(batch, n, k, x, ldx, w, ldw, out, ldo,
                        /*accumulate=*/false, bias, relu);
}

void col_sums(std::size_t m, std::size_t n, const double* g, std::size_t ldg,
              double* out, bool accumulate) {
  table().col_sums(m, n, g, ldg, out, accumulate);
}

void syrk_nt(std::size_t n, std::size_t k, const double* a, std::size_t lda,
             double* at, double* c, std::size_t ldc) {
  table().syrk_nt(n, k, a, lda, at, c, ldc);
}

void gram_dist_max(std::size_t n, const double* g, std::size_t ldg,
                   double* scratch, double* max_out) {
  table().gram_dist_max(n, g, ldg, scratch, max_out);
}

void gram_blend_adj(std::size_t n, const double* g, std::size_t ldg,
                    const double* scratch, double alpha, double inv_max,
                    double beta, const double* penalty, double* out,
                    std::size_t ldo, double eps, std::uint64_t* bits,
                    std::size_t words, std::size_t* degree) {
  table().gram_blend_adj(n, g, ldg, scratch, alpha, inv_max, beta, penalty,
                         out, ldo, eps, bits, words, degree);
}

void cost_plane_fill(std::size_t layers, const double* flops,
                     const double* eff, const double* memory_s,
                     const unsigned char* active, const CostPlaneTerms& terms,
                     double* time_out, double* energy_out) {
  table().cost_plane_fill(layers, flops, eff, memory_s, active, terms,
                          time_out, energy_out);
}

namespace {

void check_inner(std::size_t a, std::size_t b, const char* what) {
  if (a != b) throw std::invalid_argument(std::string(what) +
                                          ": inner dimension mismatch");
}

}  // namespace

void matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
  check_inner(a.cols(), b.rows(), "matmul_into");
  out.reshape(a.rows(), b.cols());
  gemm_nn(a.rows(), b.cols(), a.cols(), a.data().data(), a.cols(),
          b.data().data(), b.cols(), out.data().data(), out.cols());
}

void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& out) {
  check_inner(a.cols(), b.cols(), "matmul_nt_into");
  out.reshape(a.rows(), b.rows());
  gemm_nt(a.rows(), b.rows(), a.cols(), a.data().data(), a.cols(),
          b.data().data(), b.cols(), out.data().data(), out.cols());
}

void matmul_tn_into(const Matrix& a, const Matrix& b, Matrix& out,
                    bool accumulate) {
  check_inner(a.rows(), b.rows(), "matmul_tn_into");
  if (accumulate) {
    if (out.rows() != a.cols() || out.cols() != b.cols()) {
      throw std::invalid_argument("matmul_tn_into: accumulator shape");
    }
  } else {
    out.reshape(a.cols(), b.cols());
  }
  gemm_tn(a.cols(), b.cols(), a.rows(), a.data().data(), a.cols(),
          b.data().data(), b.cols(), out.data().data(), out.cols(),
          accumulate);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_into(a, b, out);
  return out;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_nt_into(a, b, out);
  return out;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix out;
  matmul_tn_into(a, b, out);
  return out;
}

}  // namespace powerlens::linalg::kernels
